import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import knotfoam
from knotfoam.cli import MAX_DOTS, TOOL_VERSION, main
from knotfoam.diagram import PDCode
from knotfoam.errors import InvalidDiagram
from knotfoam.foam import BLUE, RED, Binding, Facet, Foam, foam_to_json
from knotfoam.graphs import graph_to_json


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_invariants_braid_json(capsys):
    code, out, _err = run_cli(
        ["invariants", "--braid", "1 1 1", "--strands", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["lee_rank"] == 2
    assert abs(record["s"]) == 2
    assert record["n_plus"] == 3 and record["n_minus"] == 0
    assert record["slice_genus_lower_bound"] == 1


def test_invariants_empty_pd(capsys):
    code, out, _err = run_cli(["invariants", "--pd", "", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["jones"] == "q + q^-1"
    assert record["s"] == 0


def test_invariants_table_format(capsys):
    code, out, _err = run_cli(
        ["invariants", "--braid", "1 1 1", "--strands", "2"], capsys
    )
    assert code == 0
    assert "jones:" in out and "Z/2" in out


def test_skip_flags(capsys):
    code, out, _err = run_cli(
        ["invariants", "--pd", "", "--format", "json", "--skip", "lee"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["lee_rank"] is None and record["s"] is None


def test_requires_exactly_one_input(capsys):
    err = "input error: provide exactly one of --pd / --braid\n"
    assert run_cli(["invariants"], capsys) == (2, "", err)
    assert run_cli(["invariants", "--pd", "", "--braid", "1", "--strands", "2"],
                   capsys) == (2, "", err)


def test_braid_needs_strands(capsys):
    assert run_cli(["invariants", "--braid", "1 1 1"], capsys) == (
        2, "", "input error: --braid needs --strands\n")


BAD_PD = ["[[1,1,0,0]]", "[[2,2,2,2]]", "[[1,2,1,2]]",
          "[[1,1,2,4],[4,2,3,3]]", "[[4,1,1,2],[4,2,3,3]]"]


def test_bad_pd_messages_match_the_committed_lines(capsys):
    # the same codes and lines as the bad-PD step of CI, in one process
    path = pathlib.Path(__file__).parent / "data" / "cli" / "bad-pd.txt"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(BAD_PD)
    for code, line in zip(BAD_PD, lines):
        assert run_cli(["invariants", "--pd", code], capsys) == (2, "", line)


def test_parse_error_exit_code(capsys):
    code, _out, err = run_cli(["invariants", "--pd", "garbage"], capsys)
    assert code == 2


@pytest.mark.parametrize("text", [
    "(7)",               # a bare int
    "(1,2,3,4)",         # a bare row, not a list of rows
    "[[1,2,3,4],5]",     # a row that is not a list
    "[{1,2,3,4}]",       # a set has no slot order
    "[[1,2,3]]",         # three labels
    "[[1,1,2,2,3]]",     # five labels
    "[[1,2,2,1.9]]",     # a float would be truncated
    "[[1,2,'2',1]]",     # a string would be coerced
    "[[1,1,2,True]]",    # a bool is an int subclass
    "[[1,1,2,None]]",
])
def test_malformed_pd_list_exit_code(capsys, text):
    # the one line names what PDCode rejects in the literal
    with pytest.raises(InvalidDiagram) as built:
        PDCode(ast.literal_eval(text))
    code, out, err = run_cli(["invariants", "--pd", text], capsys)
    assert code == 2
    assert out == ""
    assert err == "input error: %s\n" % built.value


def test_size_limit_exit_code(capsys):
    word = " ".join(["1"] * 15)
    code, _out, err = run_cli(
        ["invariants", "--braid", word, "--strands", "2"], capsys
    )
    assert code == 3


def test_cache_round_trip(tmp_path, capsys):
    args = ["invariants", "--pd", "", "--format", "json", "--cache", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, err2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache hit" in err2
    assert len(list(tmp_path.iterdir())) == 1


def test_bad_braid_word_exit_code(capsys):
    code, out, err = run_cli(["invariants", "--braid", "1 x", "--strands", "2"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_non_planar_pd_exit_code(capsys):
    code, out, err = run_cli(["invariants", "--pd", "X[4,2,2,4];X[1,3,1,3]"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval-foam", "graph-dim"])
def test_missing_file_exit_code(tmp_path, capsys, command):
    code, out, err = run_cli([command, str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_tool_version_follows_package_version():
    assert TOOL_VERSION == "knotfoam-" + knotfoam.__version__ == "knotfoam-0.1.0"


@pytest.mark.parametrize("corrupt", [
    lambda data: data[: len(data) // 2],
    lambda data: b"\xff\xfe" + data,
    lambda data: b"[1, 2]",
    lambda data: data.replace(TOOL_VERSION.encode(), b"knotfoam-0.0.1"),
], ids=["truncated", "undecodable", "not-a-record", "stale-version"])
def test_corrupt_or_stale_cache_entry_is_a_miss(tmp_path, capsys, corrupt):
    args = ["invariants", "--braid", "1 1 1", "--strands", "2",
            "--cache", str(tmp_path)]
    code, cold, _ = run_cli(args, capsys)
    assert code == 0
    (entry,) = tmp_path.iterdir()
    good = entry.read_bytes()
    entry.write_bytes(corrupt(good))
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (0, cold)
    assert "cache hit" not in err
    # rewritten in place, with no temporary file left behind
    assert entry.read_bytes() == good
    assert list(tmp_path.iterdir()) == [entry]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (0, cold) and "cache hit" in err


@pytest.mark.parametrize("skip", [[], ["s", "lee"]], ids=["all", "skip-s-lee"])
def test_cache_entry_is_named_by_the_hashlib_digest(tmp_path, capsys, skip):
    # entries written before the key left hashlib keep their names
    import hashlib

    argv = ["invariants", "--braid", "1 1 1", "--strands", "2",
            "--cache", str(tmp_path)]
    code, _out, _err = run_cli(argv + [a for s in skip for a in ("--skip", s)],
                               capsys)
    assert code == 0
    payload = "|".join((TOOL_VERSION, "X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]",
                        ",".join(sorted(skip))))
    (entry,) = tmp_path.iterdir()
    assert entry.name == hashlib.sha256(payload.encode()).hexdigest() + ".json"


def test_cached_call_does_not_load_openssl(tmp_path, capsys):
    import importlib.util

    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("no builtin SHA-256 module in this interpreter")
    argv = ["invariants", "--braid", "1 1 1", "--strands", "2",
            "--cache", str(tmp_path)]
    code, cold, _err = run_cli(argv, capsys)
    assert code == 0
    script = ("import sys\n"
              "from knotfoam.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, '_hashlib' in sys.modules, file=sys.stderr)\n")
    src = str(pathlib.Path(knotfoam.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == cold
    assert "cache hit" in proc.stderr
    assert proc.stderr.endswith("\n0 False\n")


def test_invariants_does_not_load_the_foam_side(capsys):
    # invariants runs on the diagram engine alone; foam, graphs and
    # relations load only for the subcommands that use them
    argv = ["invariants", "--braid", "1 1 1", "--strands", "2"]
    code, out, _err = run_cli(argv, capsys)
    assert code == 0
    script = ("import sys\n"
              "import knotfoam\n"
              "from knotfoam.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "loaded = [m for m in ('foam', 'graphs', 'relations')\n"
              "          if 'knotfoam.' + m in sys.modules]\n"
              "print(code, loaded, file=sys.stderr)\n")
    src = str(pathlib.Path(knotfoam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KNOTFOAM_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.stdout == out
    assert proc.stderr.endswith("\n0 []\n")


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KNOTFOAM_CACHE", str(tmp_path))
    code, _out, _err = run_cli(["invariants", "--pd", "", "--format", "json"], capsys)
    assert code == 0
    assert list(tmp_path.iterdir())


def test_eval_foam_red_sphere(tmp_path, capsys):
    path = tmp_path / "red_sphere.json"
    path.write_text(json.dumps(foam_to_json(Foam((Facet("r", RED),), ()))))
    code, out, _err = run_cli(["eval-foam", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["-1", "symmetric: true"]


def test_eval_foam_dotted_blue_sphere(tmp_path, capsys):
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps(foam_to_json(Foam((Facet("b", BLUE, dots=1),), ()))))
    code, out, _err = run_cli(["eval-foam", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "-1"


def test_eval_foam_theta(tmp_path, capsys):
    theta = Foam(
        (
            Facet("U", BLUE, slots=("u",)),
            Facet("L", BLUE, slots=("l",)),
            Facet("R", RED, slots=("r",)),
        ),
        (Binding("beta", ("u", "l"), "r"),),
    )
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(foam_to_json(theta)))
    code, out, _err = run_cli(["eval-foam", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_eval_foam_zero_quotient_with_many_red_dots(tmp_path, capsys):
    # the blue quotient of the theta foam is 0, so its red factor, with
    # one term per red dot, must never be expanded
    demo = pathlib.Path(__file__).parent.parent / "demos" / "data" / "theta_foam.json"
    data = json.loads(demo.read_text())
    [red] = [f for f in data["facets"] if f["color"] == "red"]
    red["dots"] = 20000
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, _err = run_cli(["eval-foam", str(path)], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.splitlines()[0] == "0"


@pytest.mark.parametrize("field,facet,value", [
    ("genus", 0, 0.5), ("genus", 0, "1"), ("genus", 0, 1.0), ("genus", 0, True),
    ("dots", 1, 1.0), ("squares", 2, False),
])
def test_eval_foam_rejects_non_integer_decorations(tmp_path, capsys, field,
                                                   facet, value):
    theta = Foam(
        (
            Facet("U", BLUE, slots=("u",)),
            Facet("L", BLUE, slots=("l",)),
            Facet("R", RED, slots=("r",)),
        ),
        (Binding("beta", ("u", "l"), "r"),),
    )
    data = foam_to_json(theta)
    data["facets"][facet][field] = value
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["eval-foam", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert field in err


def test_invariants_build_one_complex(monkeypatch, capsys):
    import knotfoam.khovanov
    import knotfoam.lee

    build = knotfoam.khovanov.build_complex
    sides = []

    def counting_build(pd, side, **kwargs):
        sides.append(side)
        return build(pd, side, **kwargs)

    for module in (knotfoam.cli, knotfoam.lee, knotfoam.khovanov):
        if hasattr(module, "build_complex"):
            monkeypatch.setattr(module, "build_complex", counting_build)
    code, out, _err = run_cli(["invariants", "--braid", "1 1 1", "--strands", "2"],
                              capsys)
    assert code == 0 and "s-invariant: 2" in out and "Z/2" in out
    assert len(sides) == 1


def test_internal_invariant_failure_names_the_diagram(monkeypatch, capsys):
    from knotfoam import errors
    from knotfoam.khovanov import GradedChainComplex

    def broken(self):
        raise errors.NotAComplex("d o d != 0 at degree 1 in q-block 5")

    monkeypatch.setattr(GradedChainComplex, "check_d_squared", broken)
    prefix = ("internal invariant violated: NotAComplex: d o d != 0 at "
              "degree 1 in q-block 5, in diagram ")
    for argv, diagram in (
            (["--braid", "1 1 1", "--strands", "2"],
             "'X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]'"),
            (["--pd", "", "--format", "json"], "''")):
        code, out, err = run_cli(["invariants"] + argv, capsys)
        assert code == 4
        assert out == ""
        assert err == prefix + diagram + "\n"


def test_exit_4_from_halfway_through_the_owning_reduction(monkeypatch,
                                                        capsys):
    # every degree-2 generator of the trefoil one q-step lower: d_0 is
    # cancelled in place, then d_1's q-preserving entries lower q
    from knotfoam import cli

    build = cli.build_complex
    built = []

    def lowered(pd, *args, **kwargs):
        fc = build(pd, *args, **kwargs)
        fc.qs[2] = [q - 2 for q in fc.qs[2]]
        built.append(fc)
        return fc

    monkeypatch.setattr(cli, "build_complex", lowered)
    code, out, err = run_cli(["invariants", "--braid", "1 1 1", "--strands",
                              "2"], capsys)
    assert (code, out) == (4, "")
    assert err == ("internal invariant violated: NotAComplex: d_1 sends "
                   "q-degree 5 to q-degree 3, in diagram "
                   "'X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]'\n")
    (fc,) = built
    assert fc.differentials == {}  # the reduction owned the complex


def test_exit_4_messages_name_the_degree(monkeypatch, capsys):
    from knotfoam import cli
    from knotfoam.polyring import LaurentQ

    argv = ["invariants", "--braid", "1 1 1", "--strands", "2"]
    where = ", in diagram 'X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]'\n"
    jones = cli.graded_euler_characteristic
    monkeypatch.setattr(cli, "graded_euler_characteristic",
                        lambda cx: jones(cx) + LaurentQ({5: 1}))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert err == ("internal invariant violated: PropositionViolated: "
                   "homology table disagrees with the graded Euler "
                   "characteristic at q^5: 1 in the table, 2 in the Jones "
                   "sum" + where)
    monkeypatch.setattr(cli, "graded_euler_characteristic", jones)
    # the trefoil claimed as a 2-component link: its two survivors sit
    # in degree 0, where 4 were expected
    monkeypatch.setattr(cli, "link_components", lambda pd: 2)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert err == ("internal invariant violated: RankMismatch: Lee homology "
                   "has rank 2, expected 4 (survivors per degree {0: 2})"
                   + where)


def test_each_error_class_carries_its_exit_code(monkeypatch, capsys):
    # every error is TooLarge or subclasses exactly one of InputError and
    # InternalError, and the CLI reports each by that base, whatever it is
    from knotfoam import errors
    from knotfoam.khovanov import GradedChainComplex

    reports = {
        errors.InputError: (2, "input error: boom\n"),
        errors.InternalError: (4, "internal invariant violated: %s: boom, in "
                                  "diagram 'X[1,3,4,2];X[3,5,6,4];X[5,1,2,6]'\n"),
        errors.TooLarge: (3, "size limit: boom\n"),
    }
    assert set(errors.KnotfoamError.__subclasses__()) == set(reports)
    walked, todo = [], list(reports)
    while todo:
        cls = todo.pop()
        walked.append(cls)
        todo += cls.__subclasses__()
    defined = [c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.KnotfoamError)]
    assert sorted(map(repr, walked)) == sorted(
        repr(c) for c in defined if c is not errors.KnotfoamError)
    assert issubclass(errors.InvalidFace, errors.InternalError)
    assert issubclass(errors.NotAKnot, errors.InputError)
    for cls in walked:
        [base] = [b for b in reports if issubclass(cls, b)]

        def broken(self, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(GradedChainComplex, "check_d_squared", broken)
        code, out, err = run_cli(["invariants", "--braid", "1 1 1",
                                  "--strands", "2"], capsys)
        expected_code, message = reports[base]
        assert (code, out) == (expected_code, "")
        assert err == (message % cls.__name__ if "%s" in message else message)


def test_eval_foam_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": [{"id": "b", "color": "blue", "squares": 1}]}')
    code, _out, err = run_cli(["eval-foam", str(path)], capsys)
    assert code == 2


def test_graph_dim_theta(tmp_path, capsys):
    from knotfoam.graphs import TrivalentGraph

    rotations = {"v1": ("ri1", "l1", "r1"), "v2": ("ri2", "r2", "l2")}
    pairing = {"l1": "l2", "l2": "l1", "ri1": "ri2", "ri2": "ri1",
               "r1": "r2", "r2": "r1"}
    colors = {"l1": "blue", "l2": "blue", "ri1": "blue", "ri2": "blue",
              "r1": "red", "r2": "red"}
    g = TrivalentGraph(rotations, pairing, colors)
    path = tmp_path / "theta_graph.json"
    path.write_text(json.dumps(graph_to_json(g)))
    code, out, _err = run_cli(["graph-dim", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["q + q^-1", "matches circle count: true"]


def test_graph_dim_without_a_bigon_or_square(tmp_path, capsys):
    # (s1 s2^-1)^3 at state (1,0,1,0,1,0) has red edges and no bigon or
    # square; graph-dim used to exit 4 on it
    from knotfoam.diagram import State, braid_to_pd
    from knotfoam.graphs import smoothing_graph

    g = smoothing_graph(braid_to_pd([1, -2] * 3, 3), State((1, 0, 1, 0, 1, 0)))
    path = tmp_path / "stuck_graph.json"
    path.write_text(json.dumps(graph_to_json(g)))
    code, out, _err = run_cli(["graph-dim", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["q + q^-1", "matches circle count: true"]


def test_verify_relations(capsys):
    code, out, _err = run_cli(["verify-relations", "--max-dots", "1"], capsys)
    assert code == 0
    assert "relations hold" in out
    assert "FAIL" not in out


def test_verify_relations_failure_exits_1(monkeypatch, capsys):
    from knotfoam import relations
    from knotfoam.polyring import IntPoly2

    real = relations.verify_all_relations
    witness = {"dots": (1, 0), "lhs": IntPoly2.x1(), "rhs": IntPoly2.zero()}

    def one_failing(max_dots):
        results = real(max_dots)
        results[8] = (results[8][0], False, witness)
        return results

    monkeypatch.setattr(relations, "verify_all_relations", one_failing)
    code, out, _err = run_cli(["verify-relations", "--max-dots", "0"], capsys)
    assert code == 1
    lines = out.splitlines()
    k = lines.index("%-30s FAIL" % "bigon")
    assert lines[k + 1:k + 4] == ["  witness dots=(1, 0)", "  lhs = X1",
                                  "  rhs = 0"]
    assert lines[-1] == "23/24 relations hold"
    assert sum("FAIL" in line for line in lines) == 1


def test_verify_relations_rejects_negative_max_dots(capsys):
    # range(0) dots would evaluate no closure and report every relation held
    assert run_cli(["verify-relations", "--max-dots", "-1"], capsys) == (
        2, "", "input error: --max-dots must be at least 0, got -1\n")


def test_verify_relations_refuses_max_dots_above_the_limit():
    # a fresh interpreter under a timeout, so that a harness that starts
    # on 10^11 closures per one-circle fixture fails instead of hanging
    src = str(pathlib.Path(knotfoam.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "knotfoam.cli", "verify-relations",
         "--max-dots", "100000000000"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "size limit: --max-dots 100000000000 exceeds limit 16\n")


def test_verify_relations_max_dots_limit_is_inclusive(monkeypatch, capsys):
    from knotfoam import relations

    calls = []
    monkeypatch.setattr(relations, "verify_all_relations",
                        lambda max_dots: calls.append(max_dots) or [])
    assert run_cli(["verify-relations", "--max-dots", str(MAX_DOTS)],
                   capsys) == (0, "0/0 relations hold\n", "")
    assert run_cli(["verify-relations", "--max-dots", str(MAX_DOTS + 1)],
                   capsys) == (3, "", "size limit: --max-dots %d exceeds limit %d\n"
                               % (MAX_DOTS + 1, MAX_DOTS))
    assert calls == [MAX_DOTS]


def test_invariants_rejects_negative_max_crossings(capsys):
    # a negative limit is bad input, not a diagram over the size limit
    code, out, err = run_cli(["invariants", "--braid", "1 1 1", "--strands",
                              "2", "--max-crossings", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: --max-crossings must be at least 0, got -1\n"


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_unusable_cache_dir_still_prints_the_result(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = blocker if where == "file" else blocker / "sub"
    argv = ["invariants", "--braid", "1 1 1", "--strands", "2"]
    _code, cold, _err = run_cli(argv, capsys)
    code, out, err = run_cli(argv + ["--cache", str(cache)], capsys)
    assert (code, out) == (0, cold)
    (line,) = [l for l in err.splitlines() if not l.startswith("timing ")]
    assert line.startswith("cache write failed: ")
    assert blocker.read_text() == "not a directory"
    assert list(tmp_path.iterdir()) == [blocker]


def test_cache_entry_bytes_are_the_json_stdout(tmp_path, capsys):
    argv = ["invariants", "--braid", "1 -2 1 -2", "--strands", "3"]
    _code, table, _err = run_cli(argv, capsys)
    cached = argv + ["--cache", str(tmp_path)]
    code, out, err = run_cli(cached + ["--format", "json"], capsys)
    assert code == 0 and "cache hit" not in err
    (entry,) = tmp_path.iterdir()
    assert entry.read_bytes() == out.encode()
    code, out, err = run_cli(cached + ["--format", "table"], capsys)
    assert (code, out) == (0, table) and "cache hit" in err


def test_json_cache_hit_prints_the_entry_as_read(tmp_path, capsys, monkeypatch):
    # a --format json hit writes the entry text, with no second encoding
    argv = ["invariants", "--braid", "1 1 1", "--strands", "2", "--format",
            "json", "--cache", str(tmp_path)]
    run_cli(argv, capsys)
    (entry,) = tmp_path.iterdir()
    spaced = json.dumps(json.loads(entry.read_text()), indent=1) + "\n"
    entry.write_text(spaced)
    monkeypatch.setattr(json, "dumps", None)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, spaced) and "cache hit" in err


def test_reused_parser_is_stateless(capsys):
    """One process serves many ``main`` calls: no call's arguments or
    defaults leak into the next, in either order."""
    from knotfoam import cli

    foam = pathlib.Path(__file__).parent.parent / "demos" / "data" / "theta_foam.json"
    trefoil = ["invariants", "--braid", "1 1 1", "--strands", "2"]
    sequence = [
        trefoil + ["--skip", "s"],
        trefoil,
        trefoil + ["--format", "json"],
        trefoil + ["--format", "table"],
        trefoil + ["--no-such-flag"],
        ["invariants", "--pd", ""],
        ["eval-foam", str(foam)],
        trefoil + ["--skip", "lee", "--format", "json"],
    ]

    def run_all(calls):
        cli._parser.cache_clear()
        outs = {}
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outs[tuple(argv)] = (code, capsys.readouterr().out)
        return outs

    forward = run_all(sequence)
    assert forward == run_all(sequence[::-1])
    assert "s-invariant:" not in forward[tuple(sequence[0])][1]
    assert "s-invariant:" in forward[tuple(sequence[1])][1]
    assert forward[tuple(sequence[4])] == (2, "")
    assert forward[tuple(sequence[2])][1] != forward[tuple(sequence[3])][1]


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "knotfoam.cli", "invariants", "--pd", "",
         "--format", "json", "--skip", "lee"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["jones"] == "q + q^-1"


def _theta_foam_json():
    return foam_to_json(Foam(
        (
            Facet("U", BLUE, slots=("u",)),
            Facet("L", BLUE, slots=("l",)),
            Facet("R", RED, slots=("r",)),
        ),
        (Binding("beta", ("u", "l"), "r"),),
    ))


def _theta_graph_json():
    return {
        "vertices": [{"id": "v1", "rotation": ["ri1", "l1", "r1"]},
                     {"id": "v2", "rotation": ["ri2", "r2", "l2"]}],
        "edges": [{"halves": ["l1", "l2"], "color": "blue"},
                  {"halves": ["ri1", "ri2"], "color": "blue"},
                  {"halves": ["r1", "r2"], "color": "red"}],
        "circles": 0,
    }


def _letters_graph_json():
    # the theta graph with one-letter half-edges, so that a string of
    # them would split into the same names
    return {
        "vertices": [{"id": "v1", "rotation": ["a", "b", "c"]},
                     {"id": "v2", "rotation": ["d", "e", "f"]}],
        "edges": [{"halves": ["b", "f"], "color": "blue"},
                  {"halves": ["a", "d"], "color": "blue"},
                  {"halves": ["c", "e"], "color": "red"}],
        "circles": 0,
    }


def _doubled_half_edge_json():
    # each vertex lists one blue half-edge twice
    return {
        "vertices": [{"id": "v1", "rotation": ["a", "a", "r1"]},
                     {"id": "v2", "rotation": ["b", "b", "r2"]}],
        "edges": [{"halves": ["a", "b"], "color": "blue"},
                  {"halves": ["r1", "r2"], "color": "red"}],
    }


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("command,make,edit", [
    ("graph-dim", _theta_graph_json, _set(("vertices", 0, "rotation", 0), ["ri1"])),
    ("graph-dim", _theta_graph_json, _set(("circles",), "3")),
    ("graph-dim", _theta_graph_json, _set(("circles",), 1.5)),
    ("graph-dim", _doubled_half_edge_json, _set(("circles",), 0)),
    ("eval-foam", _theta_foam_json, _set(("facets", 0, "id"), ["U"])),
    ("eval-foam", _theta_foam_json, _set(("facets", 0, "slots", 0), ["u"])),
    ("eval-foam", _theta_foam_json, _set(("bindings", 0, "blue_pages", 0), ["u"])),
    ("eval-foam", _theta_foam_json, _set(("free_boundary",), [{"slot": "u"}])),
    ("eval-foam", _theta_foam_json, _set(("free_boundary",), "x")),
    ("eval-foam", _theta_foam_json, _set(("facets", 0, "id"), 1)),
    # a string where a list belongs is not split into characters
    ("eval-foam", _theta_foam_json, _set(("facets", 0, "slots"), "u")),
    ("eval-foam", _theta_foam_json, _set(("bindings", 0, "blue_pages"), "ul")),
    ("graph-dim", _letters_graph_json, _set(("vertices", 0, "rotation"), "abc")),
    ("graph-dim", _letters_graph_json, _set(("edges", 0, "halves"), "bf")),
], ids=["rotation-list", "circles-str", "circles-float", "half-edge-twice",
        "facet-id-list", "slot-list", "page-list", "free-boundary-no-color",
        "free-boundary-str", "facet-ids-int-and-str", "slots-str", "pages-str",
        "rotation-str", "halves-str"])
def test_malformed_json_exit_code(tmp_path, capsys, command, make, edit):
    data = make()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_graph_edge_color_as_a_list_is_an_input_error(tmp_path, capsys):
    # the vertex check compares colors with ==, so an unhashable color is
    # a bad color, not a TypeError
    data = _theta_graph_json()
    data["edges"][0]["color"] = ["blue"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["graph-dim", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("input error: vertex 'v1' needs one red and two blue "
                   "half-edges\n")
