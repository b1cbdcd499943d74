"""The four workloads: their inputs, one pass of operations, and the checks.

A workload is built once per process from its seed.  ``prepare_pass``
does the untimed housekeeping before each pass, ``run_pass`` performs
every operation once and returns one ``Op`` per operation, and
``check`` tests the first pass's outputs against an independent
computation or a property the method must have.  An operation that
raises is recorded with its exception class; ``FAULTS`` lists the
operations that fail today because of a known fault in knotfoam.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import inputs

# (workload, operation) -> exception class it raises today
FAULTS = {
    ("census", "bad-braid"): "ValueError",
    ("census", "truncated-cache"): "JSONDecodeError",
    ("foam-graph", "stuck-graph"): "ReductionStuck",
}


class CheckFailed(Exception):
    def __init__(self, tag, message):
        super().__init__("%s: %s" % (tag, message))
        self.tag = tag


def expect(condition, tag, message):
    if not condition:
        raise CheckFailed(tag, message)


class Probe:
    """The host's current speed: the seconds of a fixed pure-Python loop.

    Other tenants of the host slow it by up to 1.8x, in stretches from a
    fraction of a second to minutes.  The loop is timed again before an
    operation whenever its last timing is more than ``EVERY`` seconds
    old, so every operation is paired with a timing of the loop taken
    next to it.
    """

    EVERY = 0.1
    # the loop's fastest seconds on the host the benchmark was written
    # on (2 vCPUs, CPython 3.11.7): times divided by the loop's are
    # reported in seconds at that speed
    REFERENCE = 0.0036

    def __init__(self):
        self.at = None
        self.seconds = None

    @staticmethod
    def loop():
        t0 = time.perf_counter()
        s = 0
        for i in range(50000):
            s += i * i % 7
        return time.perf_counter() - t0

    def current(self):
        now = time.perf_counter()
        if self.at is None or now - self.at > self.EVERY:
            self.seconds = self.loop()
            self.at = time.perf_counter()
        return self.seconds


PROBE = Probe()


@dataclass
class Op:
    key: object        # names the operation within a pass
    seconds: float
    output: object
    error: str         # exception class name, or None
    latency: bool      # counted in op_p50_s
    probe: float       # the probe loop's seconds, timed just before
    steps: dict = None  # step -> seconds, for an operation timed by steps


def timed(key, fn, *args, latency=True):
    probe = PROBE.current()
    t0 = time.perf_counter()
    try:
        output = fn(*args)
    except (Exception, SystemExit) as exc:  # argparse exits on bad input
        return Op(key, time.perf_counter() - t0, None, type(exc).__name__,
                  latency, probe)
    return Op(key, time.perf_counter() - t0, output, None, latency, probe)


class Laps:
    """Puts the seconds since the previous lap into ``steps[name]``."""

    def __init__(self, steps):
        self.steps = steps
        self.last = time.perf_counter()

    def __call__(self, name):
        now = time.perf_counter()
        self.steps[name] = now - self.last
        self.last = now


def run_cli(kf, argv):
    """``knotfoam.cli.main`` in process: (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = kf.cli.main(argv)
    return code, stdout.getvalue()


def outputs_of(ops):
    return {op.key: op.output for op in ops if op.error is None}


def differences(first, later):
    """Keys of operations whose outcome differs between two passes."""
    return [a.key for a, b in zip(first, later)
            if (a.key, a.error, a.output) != (b.key, b.error, b.output)]


class Workload:
    name = None

    def __init__(self, kf, seed, workdir, smoke=False):
        self.kf = kf

    def prepare_pass(self):
        pass

    def run_pass(self, tracer):
        raise NotImplementedError

    def check(self, ops):
        raise NotImplementedError


# -- checks shared by the diagram workloads ---------------------------------


def summarize(rows):
    """Euler characteristic, rational rank and free part of Kh table rows."""
    euler, free = {}, {}
    for i, q, betti, *_torsion in rows:
        if betti:
            euler[q] = euler.get(q, 0) + (-1) ** i * betti
            free[(i, q)] = betti
    return {"table_euler": euler, "rational": sum(free.values()),
            "free": free}


def check_invariants(name, got, expected):
    """Compare one diagram's invariants with values known independently.

    ``expected`` holds the oracle Jones polynomial (rendered, and as
    {q-degree: coefficient}), the braid's component
    count and Lee rank, and optionally s (under the rule that gives it)
    and whether the Kh free part must be symmetric.
    """
    euler = {q: c for q, c in got["table_euler"].items() if c}
    expect(got["jones"] == expected["jones"], "euler",
           "%s: Kh Euler characteristic %s, oracle %s"
           % (name, got["jones"], expected["jones"]))
    expect(euler == expected["euler"], "euler",
           "%s: Euler characteristic of the Kh table differs from the oracle"
           % name)
    expect(got["components"] == expected["components"], "components",
           "%s: %s components, braid has %d"
           % (name, got["components"], expected["components"]))
    expect(got["lee_rank"] == expected["lee_rank"], "lee-rank",
           "%s: Lee rank %s, expected %d"
           % (name, got["lee_rank"], expected["lee_rank"]))
    expect(got["lee_rank"] <= got["rational"], "lee-le-kh",
           "%s: Lee rank %s above the rational Kh rank %d"
           % (name, got["lee_rank"], got["rational"]))
    for rule in ("s-positive", "s-mirror", "s-amphichiral"):
        if rule in expected:
            expect(got["s"] == expected[rule], rule, "%s: s = %s, expected %d"
                   % (name, got["s"], expected[rule]))
    if expected.get("s-even"):
        expect(isinstance(got["s"], int) and got["s"] % 2 == 0, "s-even",
               "%s: s = %s is not an even integer" % (name, got["s"]))
    if expected.get("kh-symmetric"):
        free = got["free"]
        expect(all(free.get((-i, -q)) == b for (i, q), b in free.items()),
               "kh-symmetric",
               "%s: Kh free part not symmetric under (i,q) -> (-i,-q)" % name)


# -- knots-s and links-kh ------------------------------------------------


class Diagrams(Workload):
    """Kh over Z, Lee rank and (for knots-s) s of each diagram."""

    def __init__(self, kf, seed, workdir, smoke=False):
        super().__init__(kf, seed, workdir, smoke)
        self.oracle = kf.kauffman_oracle
        self.diagrams = inputs.diagrams(seed, *self.families(smoke))
        for d in self.diagrams:
            pd = kf.braid_to_pd(list(d.word), d.strands)
            if d.kind == "mirror":
                pd = kf.mirror(pd)
            d.pd_text = str(pd)

    def run_pass(self, tracer):
        ops = []
        for d in self.diagrams:
            steps = {}
            ops.append(timed(d.name, self.invariants, d.pd_text, steps))
            ops[-1].steps = steps
        return ops

    def invariants(self, pd_text, steps):
        """One diagram's invariants; ``steps`` gets each step's seconds."""
        kf = self.kf
        lap = Laps(steps)
        pd = kf.parse_pd(pd_text)
        kf.compute_signs(pd)
        components = kf.link_components(pd)
        lap("diagram")
        cx = kf.build_complex(pd, kf.KH)
        jones = kf.graded_euler_characteristic(cx)
        lap("khovanov")
        table = kf.integral_homology(cx)
        lap("homology")
        lee_cx = kf.build_lee(pd)
        lap("lee-build")
        lee = kf.lee_rank(lee_cx, components)
        lap("lee-rank")
        s = kf.s_invariant(pd)[0] if self.with_s else None
        lap("s")
        return {"components": components, "jones": jones,
                "rows": table.rows(), "lee_rank": lee, "s": s}

    def expectations(self, d, out):
        """(observed, expected) invariants of diagram ``d`` for the checks."""
        got = out[d.name]
        oracle = self.oracle(self.kf.parse_pd(d.pd_text))
        expected = {"jones": str(oracle), "euler": oracle.terms,
                    "components": d.components,
                    "lee_rank": 2 ** d.components}
        if d.kind == "positive":
            expected["s-positive"] = len(d.word) - d.strands + 1
        elif d.kind == "mirror" and d.mirror_of in out:
            expected["s-mirror"] = -out[d.mirror_of]["s"]
        elif d.kind == "amphichiral":
            expected["s-amphichiral"] = 0
            expected["kh-symmetric"] = True
        observed = summarize(got["rows"])
        observed.update(jones=str(got["jones"]), s=got["s"],
                        components=got["components"],
                        lee_rank=got["lee_rank"])
        return observed, expected

    def check(self, ops):
        out = outputs_of(ops)
        for d in self.diagrams:
            if d.name in out:
                check_invariants(d.name, *self.expectations(d, out))


class KnotsS(Diagrams):
    name = "knots-s"
    with_s = True

    @staticmethod
    def families(smoke):
        if smoke:
            return inputs.SMOKE_KNOTS, inputs.SMOKE_MIRRORED
        return inputs.KNOTS, inputs.MIRRORED


class LinksKh(Diagrams):
    name = "links-kh"
    with_s = False

    @staticmethod
    def families(smoke):
        return (inputs.SMOKE_LINKS if smoke else inputs.LINKS), ()


# -- census --------------------------------------------------------------


def _table_rows(text):
    """(i, q, betti) rows of the CLI's table output."""
    rows, inside = [], False
    for line in text.splitlines():
        fields = line.split()
        if line.startswith("khovanov homology:"):
            inside = True
        elif inside and len(fields) >= 3 and fields[0].lstrip("-").isdigit():
            rows.append((int(fields[0]), int(fields[1]), int(fields[2])))
        elif inside and fields and fields[0] != "i":
            inside = False
    return rows


def parse_cli_output(text, fmt):
    """The invariants printed by ``knotfoam invariants`` in either format."""
    if fmt == "json":
        record = json.loads(text)
        got = summarize([(r["i"], r["q"], r["betti"])
                         for r in record["khovanov"]])
        got.update(jones=record["jones"], components=record["components"],
                   lee_rank=record["lee_rank"], s=record["s"])
        return got
    got = summarize(_table_rows(text))
    got.update(s=None, lee_rank=None)
    for line in text.splitlines():
        if line.startswith("jones: "):
            got["jones"] = line[len("jones: "):]
        elif line.startswith("crossings: "):
            got["components"] = int(line.rsplit(":", 1)[1])
        elif line.startswith("lee rank: "):
            got["lee_rank"] = int(line.split(":")[1])
        elif line.startswith("s-invariant: "):
            got["s"] = int(line.split()[1])
    return got


class Census(Workload):
    """Small diagrams through the CLI in process, cold and then cached."""

    name = "census"
    BAD_BRAID = ["invariants", "--braid", "1 x", "--strands", "2"]

    def __init__(self, kf, seed, workdir, smoke=False):
        super().__init__(kf, seed, workdir, smoke)
        self.oracle = kf.kauffman_oracle
        if smoke:
            self.calls = inputs.census_calls(seed, 2, (2, 3, 4))
        else:
            self.calls = inputs.census_calls(seed, 24, (2, 3, 4, 5, 6))
        for c in self.calls:
            if c.as_pd:
                pd = kf.braid_to_pd(list(c.word), c.strands)
                argv = ["invariants", "--pd", str(pd)]
            else:
                argv = ["invariants", "--braid", " ".join(map(str, c.word)),
                        "--strands", str(c.strands)]
            c.argv = argv + ["--format", c.fmt]
        self.root = os.path.join(workdir, "census")
        # a cache entry written by a cold call, then cut in half
        word, strands = inputs.TRUNCATED_CACHE_BRAID
        fixture = os.path.join(workdir, "truncated")
        self.truncated_argv = [
            "invariants", "--braid", " ".join(map(str, word)),
            "--strands", str(strands), "--format", "json", "--cache", fixture]
        _rc, self.truncated_reference = self.cli(self.truncated_argv)
        (entry,) = os.listdir(fixture)
        self.truncated_path = os.path.join(fixture, entry)
        with open(self.truncated_path, "rb") as fh:
            data = fh.read()
        self.truncated_bytes = data[: len(data) // 2]

    def cli(self, argv):
        return run_cli(self.kf, argv)

    def prepare_pass(self):
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        with open(self.truncated_path, "wb") as fh:
            fh.write(self.truncated_bytes)

    def run_pass(self, tracer):
        ops = []
        for i, c in enumerate(self.calls):
            cache = os.path.join(self.root, str(i))
            argv = c.argv + ["--cache", cache]
            ops.append(timed(("cold", i), tracer.call, "cli.cold",
                             self.cli, argv))
            if tracer.enabled and os.path.isdir(cache):
                tracer.count("cli.cache_bytes", sum(
                    os.path.getsize(os.path.join(cache, f))
                    for f in os.listdir(cache)))
            ops.append(timed(("hit", i), tracer.call, "cli.cache_hit",
                             self.cli, argv, latency=False))
        ops.append(timed("bad-braid", self.cli, self.BAD_BRAID, latency=False))
        ops.append(timed("truncated-cache", self.cli, self.truncated_argv,
                         latency=False))
        return ops

    def check(self, ops):
        kf = self.kf
        out = outputs_of(ops)
        for i, c in enumerate(self.calls):
            if ("cold", i) not in out:
                continue
            code, text = out[("cold", i)]
            expect(code == 0, "exit-code", "%s exited %s" % (c.argv, code))
            expect(out.get(("hit", i)) == (code, text), "cache-hit",
                   "%s: cache hit stdout differs from the cold stdout"
                   % c.argv)
            oracle = self.oracle(kf.braid_to_pd(list(c.word), c.strands))
            expected = {"jones": str(oracle), "euler": oracle.terms,
                        "components": c.components,
                        "lee_rank": 2 ** c.components}
            if c.components == 1:
                expected["s-even"] = True
                if all(g > 0 for g in c.word):
                    expected["s-positive"] = len(c.word) - c.strands + 1
            check_invariants(" ".join(c.argv), parse_cli_output(text, c.fmt),
                             expected)
        if "bad-braid" in out:
            expect(out["bad-braid"] == (2, ""), "bad-braid",
                   "a bad braid word must exit 2 with nothing on stdout")
        if "truncated-cache" in out:
            expect(out["truncated-cache"] == (0, self.truncated_reference),
                   "truncated-cache",
                   "a truncated cache entry must be recomputed as a miss")


# -- foam-graph ----------------------------------------------------------


class FoamGraph(Workload):
    """Foam evaluation, the relation harness and graph reduction."""

    name = "foam-graph"

    def __init__(self, kf, seed, workdir, smoke=False):
        super().__init__(kf, seed, workdir, smoke)
        n_foams, n_graphs, self.max_dots = \
            (20, 10, 1) if smoke else (3000, 1500, 3)
        self.foams = inputs.random_foams(seed, n_foams, kf)
        self.graphs = [(kf.braid_to_pd(list(word), strands), kf.State(state))
                       for word, strands, state
                       in inputs.graph_states(seed, n_graphs)]
        word, strands, state = inputs.STUCK_GRAPH
        self.stuck = (kf.braid_to_pd(list(word), strands), kf.State(state))
        self.graph_expected = kf.graph_evaluation

    def graph_dimension(self, pd, state):
        return self.kf.graded_dimension(self.kf.smoothing_graph(pd, state))

    def relations(self):
        return [(name, ok)
                for name, ok, _ in self.kf.verify_all_relations(self.max_dots)]

    def run_pass(self, tracer):
        kf = self.kf
        ops = [timed(("foam", i), kf.evaluate_foam, foam)
               for i, foam in enumerate(self.foams)]
        ops.append(timed("relations", self.relations))
        ops.extend(timed(("graph", i), self.graph_dimension, pd, state)
                   for i, (pd, state) in enumerate(self.graphs))
        ops.append(timed("stuck-graph", self.graph_dimension, *self.stuck,
                         latency=False))
        return ops

    def check(self, ops):
        kf = self.kf
        out = outputs_of(ops)
        for i in range(len(self.foams)):
            if ("foam", i) not in out:
                continue
            terms = out[("foam", i)].terms
            expect(all(terms.get((b, a)) == c for (a, b), c in terms.items()),
                   "foam-symmetric", "foam %d evaluates to %s, not symmetric"
                   % (i, out[("foam", i)]))
        if "relations" in out:
            failing = [name for name, ok in out["relations"] if not ok]
            expect(out["relations"] and not failing, "relations",
                   "relations fail: %s" % failing)
        keyed = [(("graph", i), g) for i, g in enumerate(self.graphs)]
        for key, (pd, state) in keyed + [("stuck-graph", self.stuck)]:
            if key not in out:
                continue
            expected = self.graph_expected(kf.smoothing_graph(pd, state))
            expect(out[key] == expected, "graded-dimension",
                   "%s: graded dimension %s, expected %s"
                   % (key, out[key], expected))


WORKLOADS = {w.name: w for w in (KnotsS, LinksKh, Census, FoamGraph)}
