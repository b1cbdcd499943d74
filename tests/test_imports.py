import ast
import pathlib
import sys

import knotfoam

PACKAGE = pathlib.Path(knotfoam.__file__).parent


def test_no_runtime_dependencies():
    # knotfoam runs on the standard library alone: every import in
    # src/knotfoam is relative, of knotfoam itself, or of a stdlib module
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "knotfoam" and top not in sys.stdlib_module_names:
                    outside.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not outside, outside
