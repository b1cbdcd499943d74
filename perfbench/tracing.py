"""Spans and counts around knotfoam's public calls.

The traced run wraps the public functions that the workloads and the
CLI call, from outside: it replaces the names in the ``knotfoam`` and
``knotfoam.cli`` namespaces with wrappers that record a span (name,
start, end, parent span, pass) and add counts taken from the call's
arguments or result.  Calls that knotfoam makes to itself through other
module namespaces (``s_invariant`` building its own Lee complex, say)
stay inside their caller's span.  Spans are kept in memory and written
out when the run ends.  Untraced runs patch nothing.
"""

from __future__ import annotations

import json
import os
import statistics
import time


def _complex_counts(args, cx):
    return {
        "khovanov.states": 2 ** args[0].n,
        "khovanov.generators": cx.total_dim(),
        "khovanov.nonzeros": sum(len(cx.matrix(i)) for i in cx.degrees),
    }


def _homology_counts(args, table):
    return {
        "homology.groups": len(table.rows()),
        "homology.torsion_summands": table.total_torsion(),
    }


# public function -> (span name, counts taken from (args, result))
WRAPPED = {
    "parse_pd": ("diagram.parse", None),
    "braid_to_pd": ("diagram.parse", None),
    "compute_signs": ("diagram.signs", None),
    "build_complex": ("khovanov.build", _complex_counts),
    "graded_euler_characteristic": ("khovanov.euler", None),
    "integral_homology": ("homology.integral", _homology_counts),
    "build_lee": ("lee.build", None),
    "lee_rank": ("lee.rank", None),
    "s_invariant": ("lee.s_invariant", None),
    "evaluate_foam": ("foam.evaluate", None),
    "verify_all_relations": ("relations.verify", None),
    "smoothing_graph": ("graphs.smoothing", None),
    "graded_dimension": ("graphs.graded_dimension",
                         lambda args, _r: {"graphs.red_edges":
                                           args[0].red_edge_count()}),
}

# The per-layer metrics, in the order of BENCHMARK.json: (metric, unit,
# span or counter it reads).  Spans give seconds per pass, counters the
# count per pass.
PER_LAYER = (
    ("diagram.parse_s", "s", "diagram.parse"),
    ("diagram.signs_s", "s", "diagram.signs"),
    ("khovanov.build_s", "s", "khovanov.build"),
    ("khovanov.euler_s", "s", "khovanov.euler"),
    ("khovanov.states", "count", "khovanov.states"),
    ("khovanov.generators", "count", "khovanov.generators"),
    ("khovanov.nonzeros", "count", "khovanov.nonzeros"),
    ("homology.integral_s", "s", "homology.integral"),
    ("homology.groups", "count", "homology.groups"),
    ("homology.torsion_summands", "count", "homology.torsion_summands"),
    ("lee.build_s", "s", "lee.build"),
    ("lee.rank_s", "s", "lee.rank"),
    ("lee.s_invariant_s", "s", "lee.s_invariant"),
    ("cli.cold_s", "s", "cli.cold"),
    ("cli.cache_hit_s", "s", "cli.cache_hit"),
    ("cli.cache_bytes", "bytes", "cli.cache_bytes"),
    ("foam.evaluate_s", "s", "foam.evaluate"),
    ("foam.colorings", "count", "foam.colorings"),
    ("relations.verify_s", "s", "relations.verify"),
    ("graphs.smoothing_s", "s", "graphs.smoothing"),
    ("graphs.graded_dimension_s", "s", "graphs.graded_dimension"),
    ("graphs.red_edges", "count", "graphs.red_edges"),
)


class NoTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def begin_pass(self):
        pass

    def count(self, name, n):
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []    # [name, start, end, parent index, pass index]
        self.counts = []   # one {counter: total} per pass
        self._stack = []
        self._undo = []

    def begin_pass(self):
        self.counts.append({})

    def count(self, name, n):
        counts = self.counts[-1]
        counts[name] = counts.get(name, 0) + n

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, len(self.counts) - 1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.count(key, n)
            return result
        return traced

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, kf):
        """Wrap the public calls in the package and CLI namespaces."""
        import knotfoam.cli
        import knotfoam.foam

        for module in (kf, knotfoam.cli):
            for attr, (name, counter) in WRAPPED.items():
                if hasattr(module, attr):
                    self._patch(module, attr,
                                self._wrap(getattr(module, attr), name, counter))
        # evaluate_foam looks up enumerate_colorings in its own module
        colorings = knotfoam.foam.enumerate_colorings

        def counted(foam):
            result = colorings(foam)
            self.count("foam.colorings", len(result))
            return result

        self._patch(knotfoam.foam, "enumerate_colorings", counted)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def metrics(self):
        """Median seconds per pass of each span; counts of the first pass.

        Raises ValueError if a count differs between passes: the inputs
        are the same every pass, so the counts must repeat exactly.
        """
        passes = len(self.counts)
        seconds = [{} for _ in range(passes)]
        for name, start, end, _parent, index in self.spans:
            seconds[index][name] = seconds[index].get(name, 0.0) + (end - start)
        for counts in self.counts[1:]:
            if counts != self.counts[0]:
                raise ValueError("counts differ between passes: %r != %r"
                                 % (counts, self.counts[0]))
        out = {}
        for metric, unit, source in PER_LAYER:
            if unit == "s":
                value = statistics.median(s.get(source, 0.0) for s in seconds)
            else:
                value = self.counts[0].get(source, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")
