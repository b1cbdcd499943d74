import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    # each demo prints exactly its golden stdout, tests/data/demos/<stem>.txt
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    golden = ROOT / "tests" / "data" / "demos" / (path.stem + ".txt")
    assert out.getvalue() == golden.read_text()
