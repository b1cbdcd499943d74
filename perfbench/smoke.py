"""Self-test of the benchmark: tiny inputs, and every check made to fire.

    python3 perfbench/run.py --smoke

Each workload runs one traced and one untraced pass over tiny inputs;
the checks must pass on the real outputs, every per-layer metric must be
reported, and the two passes must agree.  Then each check is handed a
deliberately wrong expected value (or a corrupted output, for checks
that compare two outputs) and must raise ``CheckFailed`` with its tag.
Exits 0 when every check fired, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import sys

from tracing import PER_LAYER, NoTracer, Tracer
from workloads import (FAULTS, WORKLOADS, CheckFailed, check_invariants,
                       differences, outputs_of)


@contextlib.contextmanager
def patched(obj, **attrs):
    old = {name: getattr(obj, name) for name in attrs}
    for name, value in attrs.items():
        setattr(obj, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(obj, name, value)


def changed(ops, key, **fields):
    """A copy of ``ops`` with fields of the operation ``key`` replaced."""
    return [dataclasses.replace(op, **fields) if op.key == key else op
            for op in ops]


def output_changed(ops, key, change):
    return [dataclasses.replace(op, output=change(op.output))
            if op.key == key else op for op in ops]


def fires(tag, fn):
    try:
        fn()
    except CheckFailed as exc:
        if exc.tag != tag:
            raise AssertionError("expected check %r, got %s" % (tag, exc))
        return tag
    raise AssertionError("check %r did not fire" % tag)


def run_passes(kf, workload):
    tracer = Tracer()
    tracer.install(kf)
    try:
        workload.prepare_pass()
        tracer.begin_pass()
        traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    missing = {m for m, _unit, _source in PER_LAYER} - set(metrics)
    assert not missing, "per-layer metrics missing: %s" % missing
    workload.prepare_pass()
    plain = workload.run_pass(NoTracer())
    for op in traced:
        fault = FAULTS.get((workload.name, op.key))
        assert op.error in (None, fault), "%r raised %s" % (op.key, op.error)
    assert not differences(traced, plain), differences(traced, plain)
    workload.check(traced)
    return traced


def invariant_checks(w, ops):
    """Wrong expected values for every rule of check_invariants."""
    out = outputs_of(ops)
    by_kind = {d.kind: d for d in w.diagrams}
    got, exp = w.expectations(by_kind["positive"], out)
    unknown_s = {k: v for k, v in exp.items() if k != "s-positive"}
    tags = [
        fires("euler", lambda: check_invariants("x", got, dict(exp, jones="0"))),
        fires("euler", lambda: check_invariants("x", got, dict(exp, euler={}))),
        fires("components", lambda: check_invariants(
            "x", got, dict(exp, components=exp["components"] + 1))),
        fires("lee-rank", lambda: check_invariants(
            "x", got, dict(exp, lee_rank=exp["lee_rank"] + 2))),
        fires("lee-le-kh", lambda: check_invariants(
            "x", dict(got, rational=0), exp)),
        fires("s-positive", lambda: check_invariants(
            "x", got, dict(exp, **{"s-positive": exp["s-positive"] + 2}))),
        fires("s-amphichiral", lambda: check_invariants(
            "x", got, dict(exp, **{"s-amphichiral": 0}))),
        fires("kh-symmetric", lambda: check_invariants(
            "x", got, dict(exp, **{"kh-symmetric": True}))),
        fires("s-even", lambda: check_invariants(
            "x", dict(got, s=1), dict(unknown_s, **{"s-even": True}))),
    ]
    got, exp = w.expectations(by_kind["mirror"], out)
    tags.append(fires("s-mirror", lambda: check_invariants(
        "x", got, dict(exp, **{"s-mirror": exp["s-mirror"] + 2}))))
    return tags


def workload_checks(kf, name, w, ops):
    """Wrong expected values and corrupted outputs for each workload check."""
    shifted = lambda poly: poly * kf.LaurentQ.q(2)  # noqa: E731
    if name in ("knots-s", "links-kh", "census"):
        oracle = w.oracle
        with patched(w, oracle=lambda pd: shifted(oracle(pd))):
            tags = [fires("euler", lambda: w.check(ops))]
    if name == "census":
        tags += [
            fires("exit-code", lambda: w.check(
                output_changed(output_changed(ops, ("cold", 0), lambda o: (1, o[1])),
                               ("hit", 0), lambda o: (1, o[1])))),
            fires("cache-hit", lambda: w.check(
                output_changed(ops, ("hit", 0), lambda o: (o[0], o[1] + " ")))),
            fires("bad-braid", lambda: w.check(
                changed(ops, "bad-braid", error=None, output=(1, "")))),
            fires("truncated-cache", lambda: w.check(
                changed(ops, "truncated-cache", error=None, output=(0, "")))),
        ]
    if name == "foam-graph":
        expected = w.graph_expected
        tags = [
            fires("foam-symmetric", lambda: w.check(
                output_changed(ops, ("foam", 0), lambda v: kf.IntPoly2.x1()))),
            fires("relations", lambda: w.check(
                output_changed(ops, "relations",
                               lambda r: [(r[0][0], False)] + r[1:]))),
            fires("graded-dimension", lambda: w.check(
                changed(ops, "stuck-graph", error=None,
                        output=kf.LaurentQ.zero()))),
        ]
        with patched(w, graph_expected=lambda g: shifted(expected(g))):
            tags.append(fires("graded-dimension", lambda: w.check(ops)))
    key = ops[0].key
    assert differences(ops, output_changed(ops, key, lambda o: None)) == [key], \
        "a changed output went unnoticed between passes"
    return tags + ["determinism"]


def spec_matches(path, end_to_end):
    """BENCHMARK.json names the workloads and metrics this code reports."""
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), \
        "BENCHMARK.json workloads differ from the code's"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == end_to_end, \
        "BENCHMARK.json end-to-end metrics differ from the code's"
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _source in PER_LAYER], \
        "BENCHMARK.json per-layer metrics differ from the code's"


def smoke(kf, workdir, spec, end_to_end):
    fired = []
    try:
        spec_matches(spec, end_to_end)
        for name, cls in WORKLOADS.items():
            w = cls(kf, 1, workdir, smoke=True)
            ops = run_passes(kf, w)
            if name == "knots-s":
                fired += ["knots-s/" + t for t in invariant_checks(w, ops)]
            fired += ["%s/%s" % (name, t)
                      for t in workload_checks(kf, name, w, ops)]
            print("smoke: %s ok, %d operations" % (name, len(ops)))
    except AssertionError as exc:
        print("smoke: FAILED: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: ok, %d checks fired: %s" % (len(fired), " ".join(fired)))
    return 0
