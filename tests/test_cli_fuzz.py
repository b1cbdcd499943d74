"""A seeded fuzz of the command line: every call ends in a documented exit.

Mutations of PD text, braid words and the four demo JSON files go
through ``cli.main`` in process.  Each call must return 0, 2 (input
error) or 3 (size limit) -- argparse's own ``SystemExit`` counts as 2 --
and a call that fails prints nothing on stdout.  An exception that
escapes ``main``, or exit 4 (an internal invariant failed), is a fault.

Every number a mutation writes is at most 50 in absolute value, and
``--max-crossings`` stays at most 8.  Larger values are valid input
whose answer is large in itself: a red facet with d dots expands to
d + 1 terms, a graph with c free circles prints (q + q^-1)^c, and the
cube of an n-crossing diagram has 2^n states.  Such calls are slow
because their output or their work is, not because the input handling
is wrong, and they would only make the harness time out.
"""

import io
import json
import pathlib
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from knotfoam.cli import main

DEMO_DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"
CAP = 50

PD_TEXTS = [
    "",
    "X[1,2,2,1]",
    "X[1,5,2,4];X[3,1,4,6];X[5,3,6,2]",
    "X[4,2,5,1];X[8,6,1,5];X[6,3,7,4];X[2,7,3,8]",
    "X[1,3,2,4];X[3,1,4,2]",
    "[[1,5,2,4],[3,1,4,6],[5,3,6,2]]",
]
BRAID_WORDS = ["1", "1 1 1", "-1 -1 -1", "1 -2 1 -2", "1 1", "1, 2, 1, 2", "2 1 2"]
NOISE = "X[],;()-+0123456789 .ab'\"\n\t"


def _number(rng):
    return rng.randint(-CAP, CAP)


def _mutate_text(rng, text):
    """One random edit of a string: a number, a deletion, an insertion,
    a duplicated or swapped slice, or a truncation."""
    kind = rng.randrange(6)
    at = rng.randint(0, len(text))
    if kind == 0:
        digits = [k for k, ch in enumerate(text) if ch.isdigit()]
        if digits:
            k = rng.choice(digits)
            end = k
            while end < len(text) and text[end].isdigit():
                end += 1
            return text[:k] + str(_number(rng)) + text[end:]
        return text + str(_number(rng))
    if kind == 1:
        return text[:at] + text[at + rng.randint(1, 3):]
    if kind == 2:
        return text[:at] + rng.choice(NOISE) + text[at:]
    if kind == 3:
        end = min(len(text), at + rng.randint(1, 8))
        return text[:end] + text[at:end] + text[end:]
    if kind == 4 and len(text) > 1:
        a, b = sorted(rng.sample(range(len(text)), 2))
        return text[:a] + text[b] + text[a + 1:b] + text[a] + text[b + 1:]
    return text[:at]


def _mutate_times(rng, text):
    for _ in range(rng.randint(1, 3)):
        text = _mutate_text(rng, text)
    return text


def _crossing_limit(rng):
    return ["--max-crossings", str(rng.randint(-2, 8))]


def _pd_case(rng):
    argv = ["invariants", "--pd", _mutate_times(rng, rng.choice(PD_TEXTS))]
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return argv + _crossing_limit(rng)


def _mutate_word(rng, word):
    """One random edit of a braid word, letter by letter, mostly keeping
    it a braid word on a few strands."""
    letters = word.replace(",", " ").split()
    at = rng.randint(0, len(letters))
    kind = rng.randrange(3)
    if kind == 0 and letters:
        letters[min(at, len(letters) - 1)] = str(rng.randint(-4, 4))
    elif kind == 1:
        letters.insert(at, str(rng.choice([-3, -2, -1, 1, 2, 3])))
    else:
        del letters[at:at + 1]
    return " ".join(letters)


def _braid_case(rng):
    word = rng.choice(BRAID_WORDS)
    roll = rng.random()
    if roll < 0.5:
        word = _mutate_word(rng, _mutate_word(rng, word))
    elif roll < 0.8:
        word = _mutate_times(rng, word)
    argv = ["invariants", "--braid", word]
    # the strand count the word's largest generator asks for, or one off
    used = [int(t) for t in re.findall(r"\d+", word)]
    roll = rng.random()
    if roll < 0.7:
        strands = 1 + max(used, default=1) + rng.choice([0, 0, 0, -1, 1])
        argv += ["--strands", str(strands)]
    elif roll < 0.8:
        argv += ["--strands", str(_number(rng))]
    elif roll < 0.9:
        argv += ["--strands", _mutate_times(rng, str(_number(rng)))]
    if rng.random() < 0.2:
        argv += ["--skip", rng.choice(["lee", "s", "kh"])]
    return argv + _crossing_limit(rng)


def _nodes(doc, path=()):
    """Every (path, value) pair inside a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate_json(rng, doc):
    """One random edit of a JSON document: a node replaced, deleted or
    duplicated.  The root is never replaced."""
    nodes = list(_nodes(doc))
    path, value = rng.choice(nodes[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    kind = rng.randrange(4)
    if kind == 0:
        del parent[last]
    elif kind == 1 and isinstance(parent, list):
        parent.insert(last, json.loads(json.dumps(value)))
    else:
        strings = [v for _p, v in nodes if isinstance(v, str)] or ["x"]
        other = json.loads(json.dumps(rng.choice(nodes)[1]))
        parent[last] = rng.choice([
            _number(rng), _number(rng) + 0.5, rng.choice(strings), None,
            rng.random() < 0.5, [], {}, other])
    return doc


def _json_case(rng, tmp_path, k):
    name = rng.choice(sorted(p.name for p in DEMO_DATA.glob("*.json")))
    doc = json.loads((DEMO_DATA / name).read_text())
    for _ in range(rng.randint(1, 3)):
        doc = _mutate_json(rng, doc)
    data = json.dumps(doc).encode()
    roll = rng.random()
    if roll < 0.15:
        data = _mutate_times(rng, data.decode()).encode()
    elif roll < 0.2:
        at = rng.randint(0, len(data))
        data = data[:at] + bytes([rng.randrange(256)]) + data[at:]
    path = tmp_path / ("case%d.json" % k)
    path.write_bytes(data)
    command = "graph-dim" if "graph" in name else "eval-foam"
    if rng.random() < 0.1:
        command = {"graph-dim": "eval-foam", "eval-foam": "graph-dim"}[command]
    return [command, str(path)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 2 if exc.code == 2 else ("SystemExit", exc.code)
        except Exception as exc:  # the fault this harness looks for
            code = (type(exc).__name__, str(exc))
    return code, out.getvalue()


def test_cli_fuzz_ends_in_documented_exits(tmp_path, monkeypatch):
    monkeypatch.delenv("KNOTFOAM_CACHE", raising=False)
    rng = random.Random(2026)
    faults = []
    codes = Counter()
    for k in range(2100):
        kind = k % 3
        if kind == 0:
            argv = _pd_case(rng)
        elif kind == 1:
            argv = _braid_case(rng)
        else:
            argv = _json_case(rng, tmp_path, k)
        code, out = _run(argv)
        codes[code if code in (0, 2, 3) else "fault"] += 1
        if code not in (0, 2, 3) or (code and out):
            faults.append((argv, code, out[:200]))
    assert not faults, faults[:5]
    # the mutations reach every documented exit, not just input errors
    assert codes[0] > 100 and codes[2] > 100 and codes[3] > 10, codes
