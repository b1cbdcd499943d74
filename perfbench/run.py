"""knotfoam benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload knots-s --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --hashes out.json --seed 1    # stdout SHA-256s
    python3 perfbench/run.py --smoke                       # self-test

Run it from the root of a knotfoam checkout; it imports knotfoam from
``src/`` there and from nowhere else.  A run builds the workload's
inputs from the seed, then repeats whole passes over them until the
next pass would end after ``--seconds`` (at least one pass).  Every
operation is timed against a speed probe timed next to it (see
``workloads.Probe``).  The first pass is checked for correctness and
every later pass must give the same outputs.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, and the spans are written to
``.perfbench/traces/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def require_sources():
    if not os.path.isdir(os.path.join(SRC, "knotfoam")):
        sys.exit("perfbench: no knotfoam sources in %s" % SRC)


def load_knotfoam():
    """Import knotfoam from the checkout's src/, or exit non-zero."""
    require_sources()
    sys.path.insert(0, SRC)
    import knotfoam
    import knotfoam.cli  # noqa: F401  (the census workload calls it)

    if os.path.dirname(os.path.dirname(os.path.abspath(knotfoam.__file__))) != SRC:
        sys.exit("perfbench: imported knotfoam from %s, not from %s"
                 % (knotfoam.__file__, SRC))
    return knotfoam


def work_dir():
    return os.path.join(os.getcwd(), ".perfbench", "work-%d" % os.getpid())


def build(name, seed, workdir, smoke=False):
    """Import knotfoam and make the workload's inputs; the set-up users pay."""
    kf = load_knotfoam()
    from workloads import WORKLOADS

    return WORKLOADS[name](kf, seed, workdir, smoke)


def setup_seconds(name, seed):
    """Median set-up time over fresh interpreters, each timing itself."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.exit("perfbench: set-up failed:\n%s" % proc.stderr)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Tally:
    """What a run keeps of its passes."""

    def __init__(self):
        self.passes = []     # wall seconds of each pass
        self.ratios = {}     # operation -> {step: [seconds / probe, ...]}
        self.latency = []    # operations counted in op_p50_s
        self.attempted = 0
        self.failed = {}     # (operation, exception class) -> count
        self.problems = []

    def add(self, seconds, ops):
        self.passes.append(seconds)
        self.attempted += len(ops)
        if not self.ratios:
            self.latency = [op.key for op in ops
                            if op.latency and not op.error]
        for op in ops:
            ratios = self.ratios.setdefault(op.key, {})
            for step, secs in (op.steps or {None: op.seconds}).items():
                ratios.setdefault(step, []).append(secs / op.probe)
            if op.error:
                key = (repr(op.key), op.error)
                self.failed[key] = self.failed.get(key, 0) + 1

    def op_seconds(self, key):
        """An operation's seconds at the probe's reference speed.

        Each step's time is divided by the probe timed next to it, and
        the median over passes of that ratio is scaled by the probe's
        reference seconds; an operation is the sum of its steps.
        """
        from workloads import Probe

        return Probe.REFERENCE * sum(
            statistics.median(r) for r in self.ratios[key].values())


def measure(workload, seconds, tracer):
    """Whole passes until the next one would end after ``seconds``."""
    from workloads import FAULTS, CheckFailed, differences

    tally = Tally()
    first = None
    while True:
        workload.prepare_pass()
        tracer.begin_pass()
        t0 = time.perf_counter()
        ops = workload.run_pass(tracer)
        tally.add(time.perf_counter() - t0, ops)
        if first is None:
            first = ops
            tally.problems.extend(
                "%r raised %s" % (op.key, op.error) for op in ops
                if op.error and (workload.name, op.key) not in FAULTS)
            try:
                workload.check(ops)
            except CheckFailed as exc:
                tally.problems.append("check failed: %s" % exc)
        else:
            tally.problems.extend("%r differs between passes" % (key,)
                                  for key in differences(first, ops))
        if sum(tally.passes) + statistics.median(tally.passes) > seconds:
            return tally


def run_workload(args):
    from tracing import NoTracer, Tracer

    require_sources()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workdir = work_dir()
    tracer = Tracer() if args.trace else NoTracer()
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.trace:
            tracer.install(workload.kf)
        tally = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    for (key, error), count in sorted(tally.failed.items()):
        print("perfbench: failed %s %s x%d" % (key, error, count),
              file=sys.stderr)
    print("perfbench: %s seed %d: %d passes, wall %s s" % (
        args.workload, args.seed, len(tally.passes),
        " ".join("%.3f" % p for p in tally.passes)), file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics()
        tracer.write(os.path.join(os.getcwd(), ".perfbench", "traces",
                                  "%s-seed%d.json" % (args.workload, args.seed)))
    else:
        values = {
            "setup_s": setup_s,
            # a pass is the sum of its operations, each at the probe's
            # reference speed (see Tally.op_seconds)
            "run_s": sum(map(tally.op_seconds, tally.ratios)),
            "op_p50_s": statistics.median(map(tally.op_seconds,
                                              tally.latency)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": sum(tally.failed.values()),
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    require_sources()
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.splitlines()[-1] if proc.stdout else "{}"
        print("%s %s" % (name, last))
        code = code or proc.returncode
    return code


def write_hashes(args):
    """SHA-256 of the CLI stdout for every census, knots-s and links-kh input."""
    import hashlib

    from workloads import run_cli

    hashes = {}
    workdir = work_dir()
    try:
        for name in ("census", "knots-s", "links-kh"):
            workload = build(name, args.seed, workdir)
            if name == "census":
                argvs = {" ".join(c.argv): c.argv for c in workload.calls}
            else:
                argvs = {"%s --format %s" % (d.name, fmt):
                         ["invariants", "--pd", d.pd_text, "--format", fmt]
                         for d in workload.diagrams for fmt in ("json", "table")}
            for key, argv in argvs.items():
                _code, text = run_cli(workload.kf, argv)
                hashes["%s: %s" % (name, key)] = hashlib.sha256(
                    text.encode()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.hashes)), exist_ok=True)
    with open(args.hashes, "w") as fh:
        json.dump({"seed": args.seed, "sha256": hashes}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print("perfbench: wrote %d hashes to %s" % (len(hashes), args.hashes))
    return 0


def main(argv=None):
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload",
                        choices=("knots-s", "links-kh", "census", "foam-graph",
                                 "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hashes", metavar="PATH")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # every cache the CLI sees is one the benchmark names
    os.environ.pop("KNOTFOAM_CACHE", None)

    if args.setup_only:
        workdir = work_dir()
        try:
            build(args.workload, args.seed, workdir)
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        from workloads import Probe

        # at the probe's reference speed, like the other times
        probe = statistics.median(Probe.loop() for _ in range(5))
        print(json.dumps({"setup_s": elapsed / probe * Probe.REFERENCE}))
        return 0
    if args.smoke:
        from smoke import smoke

        spec = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        return smoke(load_knotfoam(), work_dir(), spec, END_TO_END)
    if args.hashes:
        return write_hashes(args)
    if args.workload is None:
        parser.error("give --workload, --hashes or --smoke")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
