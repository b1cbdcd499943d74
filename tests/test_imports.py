import ast
import importlib
import pathlib
import sys

import pytest

import knotfoam

PACKAGE = pathlib.Path(knotfoam.__file__).parent


# CPython's builtin SHA-256 module is _sha256 up to 3.11 and _sha2 from
# 3.12; each is in the standard library of its own versions only
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}


def test_lazy_names_are_the_submodules_objects():
    # the foam, relations and graphs names load their module on first use
    # and are then the module's own objects, as plain re-exports were
    modules = sorted(set(knotfoam._LAZY.values()))
    assert modules == ["foam", "graphs", "relations"]
    for name, module in knotfoam._LAZY.items():
        source = importlib.import_module("knotfoam." + module)
        assert getattr(knotfoam, name) is getattr(source, name), name
    for module in modules:
        assert getattr(knotfoam, module) is sys.modules["knotfoam." + module]
    assert set(knotfoam._LAZY) | set(modules) <= set(dir(knotfoam))
    with pytest.raises(AttributeError, match="'knotfoam' has no attribute 'nope'"):
        knotfoam.nope


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
                if top != "knotfoam" and top not in STDLIB:
                    outside.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not outside, outside


ROOT = pathlib.Path(__file__).resolve().parent.parent

# public names that only tests call, each with the reason it stays
TEST_ONLY = {
    "graph_to_json": "the writer side of graph_from_json",
}


def _names(nodes, attributes=False):
    """Every name the nodes read, call, import or take as an attribute;
    with ``attributes``, only the names taken as attributes (``x.name``)."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif attributes:
                continue
            elif isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
    return found


def test_no_public_helpers_only_tests_call():
    # every public module-level def or class of src/knotfoam, and every
    # public method or property of such a class, is named outside tests/:
    # elsewhere in src/ (its own definition and the __init__.py re-export
    # aside), or in demos/, scripts/ or perfbench/; a method counts as
    # named only where it is taken as an attribute, so that a local
    # variable of the same name does not hide it
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted((ROOT / "src" / "knotfoam").glob("*.py"))
               if p.name != "__init__.py"}
    others = [ast.parse(path.read_text(), str(path))
              for folder in ("demos", "scripts", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    outside = _names(others)
    assert len(modules) > 10 and outside
    in_src = {path: _names(tree.body) for path, tree in modules.items()}
    attrs = {path: _names(tree.body, True) for path, tree in modules.items()}
    defined = set()
    test_only = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name.startswith("_") or node.name in TEST_ONLY:
                continue
            used = outside.union(*(n for p, n in in_src.items() if p != path))
            used |= _names([n for n in tree.body if n is not node])
            if node.name not in used:
                test_only.append("%s:%d %s" % (path.name, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                taken = _names(others, True).union(
                    *(a for p, a in attrs.items() if p != path))
                taken |= _names([n for n in tree.body if n is not node], True)
                for method in node.body:
                    if (not isinstance(method, ast.FunctionDef)
                            or method.name.startswith("_")):
                        continue
                    name = "%s.%s" % (node.name, method.name)
                    defined.add(name)
                    if name in TEST_ONLY:
                        continue
                    if method.name not in taken | _names(
                            [n for n in node.body if n is not method], True):
                        test_only.append("%s:%d %s" % (path.name, method.lineno,
                                                       name))
    assert not test_only, test_only
    assert set(TEST_ONLY) <= defined, set(TEST_ONLY) - defined
