"""Command-line front end.

Subcommands:

* ``knotfoam invariants`` -- Jones polynomial, Khovanov homology table,
  Lee rank, s-invariant and slice-genus bound of a diagram given as
  ``--pd "X[...];..."`` or ``--braid "1 1 1" --strands 2``.
* ``knotfoam eval-foam FILE`` -- evaluate a closed foam from JSON.
* ``knotfoam graph-dim FILE`` -- graded dimension of a trivalent graph.
* ``knotfoam verify-relations`` -- run the local-relation harness.

Importing this module loads the diagram engine that ``invariants`` runs;
the other three subcommands import the foam, graphs and relations
modules when they run.

Results on stdout are byte-identical across repeated runs: timing
information goes to stderr, and cached records are replayed verbatim.
Exit codes: 1 when ``verify-relations`` finds a relation that fails,
2 for input errors, 3 size limit: crossings or dots (``--max-crossings``,
or a ``--max-dots`` above ``MAX_DOTS``), 4 when an internal structural
invariant fails (``invariants`` names the diagram).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__, errors
from .diagram import braid_to_pd, link_components, parse_pd
from .homology import homology_table, reduce_complex
from .khovanov import LEE, MAX_CROSSINGS, build_complex, graded_euler_characteristic
from .lee import (lee_invariants, oriented_resolution_generators,
                  slice_genus_lower_bound)

TOOL_VERSION = "knotfoam-" + __version__
# the largest --max-dots: a four-circle fixture closes in (16 + 1)^4 ways
MAX_DOTS = 16


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(prog="knotfoam")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="link invariants from a diagram")
    inv.add_argument("--pd", help="PD code, e.g. 'X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]'")
    inv.add_argument("--braid", help="braid word, e.g. '1 1 1'")
    inv.add_argument("--strands", type=int, help="strand count for --braid")
    inv.add_argument("--format", choices=("table", "json"), default="table")
    inv.add_argument("--cache", default=None, help="cache directory "
                     "(default: KNOTFOAM_CACHE environment variable)")
    inv.add_argument("--max-crossings", type=int, default=MAX_CROSSINGS)
    inv.add_argument("--skip", action="append", default=[],
                     choices=("lee", "s"), help="skip an invariant")

    ef = sub.add_parser("eval-foam", help="evaluate a closed foam JSON file")
    ef.add_argument("path")

    gd = sub.add_parser("graph-dim", help="graded dimension of a graph JSON file")
    gd.add_argument("path")

    vr = sub.add_parser("verify-relations", help="run the local-relation harness")
    vr.add_argument("--max-dots", type=int, default=2,
                    help="caps carry 0..MAX_DOTS dots, at most %d" % MAX_DOTS)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "eval-foam":
            return _cmd_eval_foam(args)
        if args.command == "graph-dim":
            return _cmd_graph_dim(args)
        return _cmd_verify_relations(args)
    except errors.TooLarge as exc:
        print("size limit: %s" % exc, file=sys.stderr)
        return 3
    except errors.InternalError as exc:
        print("internal invariant violated: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    except errors.InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


def _cmd_invariants(args):
    if args.max_crossings < 0:
        raise errors.ParseError("--max-crossings must be at least 0, got %d"
                                % args.max_crossings)
    if (args.pd is None) == (args.braid is None):
        raise errors.ParseError("provide exactly one of --pd / --braid")
    if args.pd is not None:
        pd = parse_pd(args.pd)
        echo = {"pd": str(pd)}
    else:
        if args.strands is None:
            raise errors.ParseError("--braid needs --strands")
        try:
            word = [int(w) for w in args.braid.replace(",", " ").split()]
        except ValueError:
            raise errors.ParseError(
                "braid word must list integers, got %r" % args.braid
            ) from None
        pd = braid_to_pd(word, args.strands)
        echo = {"braid": word, "strands": args.strands, "pd": str(pd)}

    skip = set(args.skip)
    cache_dir = args.cache or os.environ.get("KNOTFOAM_CACHE")
    if cache_dir:
        payload = "|".join((TOOL_VERSION, str(pd), ",".join(sorted(skip))))
        key = _sha256()(payload.encode()).hexdigest()
        path = os.path.join(cache_dir, key + ".json")
        text = _read_cache(path, args.format)
        if text is not None:
            sys.stdout.write(text)
            print("cache hit: %s" % path, file=sys.stderr)
            return 0

    try:
        record, timings = _compute_record(pd, echo, skip, args.max_crossings)
    except errors.InternalError as exc:
        exc.args = ("%s, in diagram %r" % (exc, str(pd)),)
        raise
    text = _render(record, args.format)
    if cache_dir:
        try:
            _write_cache(path, text if args.format == "json"
                         else _render(record, "json"))
        except OSError as exc:
            print("cache write failed: %s" % exc, file=sys.stderr)
    sys.stdout.write(text)
    for stage, dt in timings.items():
        print("timing %-10s %.3fs" % (stage, dt), file=sys.stderr)
    return 0


@functools.cache
def _sha256():
    """The SHA-256 constructor of the interpreter's builtin module, found
    on the first cached call, as CPython's ``random`` takes ``sha512``.
    Its digests are ``hashlib``'s, but ``hashlib`` loads OpenSSL, about
    3.8 MB of resident memory, so it is only the fallback."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _read_cache(path, fmt):
    """The rendered cache entry at ``path``, or None on a miss.

    The entry is the ``--format json`` stdout, so that format gets the
    text as read.  An entry that cannot be read, decoded or rendered, or
    that another tool version wrote, counts as a miss and is recomputed.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        record = json.loads(text)
        if isinstance(record, dict) and record.get("tool_version") == TOOL_VERSION:
            return text if fmt == "json" else _render(record, fmt)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, KeyError, TypeError):
        pass
    print("cache entry unreadable or stale, recomputing: %s" % path,
          file=sys.stderr)
    return None


def _write_cache(path, text):
    """Write the JSON ``text`` to a file of this process, then move it.

    Readers, concurrent writers included, see a whole entry or none.  A failed
    write or move removes the file; any ``OSError`` reaches the caller.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compute_record(pd, echo, skip, max_crossings):
    """The record of one diagram, from one Lee complex reduced once."""
    timings = {}
    t0 = time.perf_counter()
    components = link_components(pd)
    fc = build_complex(pd, LEE, max_crossings=max_crossings)
    jones = graded_euler_characteristic(fc)
    fc.check_d_squared()
    with_s = "lee" not in skip and "s" not in skip and components == 1
    classes = oriented_resolution_generators(pd, fc) if with_s else ()
    # fc's differentials are not read again: the reduction owns them
    res = reduce_complex(fc, cycles=classes, consume=True)
    table = homology_table(res)
    euler = table.graded_euler()
    if euler != jones:
        q = min((euler - jones).terms)
        raise errors.PropositionViolated(
            "homology table disagrees with the graded Euler characteristic "
            "at q^%d: %d in the table, %d in the Jones sum"
            % (q, euler.terms.get(q, 0), jones.terms.get(q, 0))
        )
    timings["khovanov"] = time.perf_counter() - t0

    record = {
        "input": echo,
        "n_plus": fc.n_plus,
        "n_minus": fc.n_minus,
        "components": components,
        "jones": str(jones),
        "khovanov": [
            {"i": i, "q": q, "betti": b, "torsion": t}
            for i, q, b, t in table.rows()
        ],
        "lee_rank": None,
        "s": None,
        "slice_genus_lower_bound": None,
        "tool_version": TOOL_VERSION,
    }

    if "lee" not in skip:
        t0 = time.perf_counter()
        record["lee_rank"], knot = lee_invariants(res, components)
        if knot is not None:
            s, detail = knot
            record.update(s=s, s_min=detail["s_min"], s_max=detail["s_max"],
                          slice_genus_lower_bound=slice_genus_lower_bound(s))
        timings["lee"] = time.perf_counter() - t0
    return record, timings


def _render(record, fmt):
    """The stdout text of a record."""
    if fmt == "json":
        return json.dumps(record, sort_keys=True) + "\n"
    echo = record["input"]
    lines = [
        "input: %s" % json.dumps(echo, sort_keys=True),
        "crossings: %d positive, %d negative   components: %d"
        % (record["n_plus"], record["n_minus"], record["components"]),
        "jones: %s" % record["jones"],
        "khovanov homology:",
        "  %4s %4s %6s  %s" % ("i", "q", "betti", "torsion"),
    ]
    for row in record["khovanov"]:
        torsion = ",".join("Z/%d" % t for t in row["torsion"]) or "-"
        lines.append("  %4d %4d %6d  %s"
                     % (row["i"], row["q"], row["betti"], torsion))
    if record["lee_rank"] is not None:
        lines.append("lee rank: %d" % record["lee_rank"])
    if record["s"] is not None:
        lines.append("s-invariant: %d   (s_min=%d, s_max=%d)   slice genus >= %d"
                     % (record["s"], record["s_min"], record["s_max"],
                        record["slice_genus_lower_bound"]))
    return "\n".join(lines) + "\n"


def _load_json(path):
    """The JSON document in ``path``; an unreadable file is an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise errors.ParseError(
            "cannot read %s: %s" % (path, exc.strerror or exc)
        ) from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise errors.ParseError(str(exc)) from None


def _cmd_eval_foam(args):
    from .foam import evaluate_foam, foam_from_json

    foam = foam_from_json(_load_json(args.path))
    value = evaluate_foam(foam)
    print(value)
    print("symmetric: %s" % ("true" if value.is_symmetric() else "false"))
    return 0


def _cmd_graph_dim(args):
    from .graphs import graded_dimension, graph_evaluation, graph_from_json

    g = graph_from_json(_load_json(args.path))
    dim = graded_dimension(g)
    print(dim)
    agrees = dim == graph_evaluation(g)
    print("matches circle count: %s" % ("true" if agrees else "false"))
    return 0


def _cmd_verify_relations(args):
    from .relations import verify_all_relations

    if args.max_dots < 0:
        raise errors.ParseError("--max-dots must be at least 0, got %d"
                                % args.max_dots)
    if args.max_dots > MAX_DOTS:
        raise errors.TooLarge("--max-dots %d exceeds limit %d"
                              % (args.max_dots, MAX_DOTS))
    results = verify_all_relations(max_dots=args.max_dots)
    failed = 0
    for name, ok, witness in results:
        print("%-30s %s" % (name, "pass" if ok else "FAIL"))
        if not ok:
            failed += 1
            print("  witness dots=%s" % (witness["dots"],))
            print("  lhs = %s" % witness["lhs"])
            print("  rhs = %s" % witness["rhs"])
    print("%d/%d relations hold" % (len(results) - failed, len(results)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
