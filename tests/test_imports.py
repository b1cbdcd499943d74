import ast
import pathlib
import sys

import knotfoam

PACKAGE = pathlib.Path(knotfoam.__file__).parent


# CPython's builtin SHA-256 module is _sha256 up to 3.11 and _sha2 from
# 3.12; each is in the standard library of its own versions only
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}


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
    "chi_subsurface": "with count_n12, the term-by-term oracle of evaluate_foam",
    "count_n12": "with chi_subsurface, the term-by-term oracle of evaluate_foam",
    "class_filtration_degree": "the degree of an arbitrary Lee class, checked "
                               "against the rank oracle",
    "lee_homology_betti": "Lee homology in an arbitrary degree, checked against "
                          "the rank oracle",
    "graph_to_json": "the writer side of graph_from_json",
    "blue_components": "the component count k that the 2**k colorings of "
                       "enumerate_colorings are checked against",
    "IntPoly2.substitute_equal": "the X1 = X2 collapse that picks the "
                                 "polynomials X1 - X2 does not divide",
}


def _names(nodes):
    """Every name the nodes read, call, import or take as an attribute."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
    return found


def test_no_public_helpers_only_tests_call():
    # every public module-level def or class of src/knotfoam, and every
    # public method or property of such a class, is named outside tests/:
    # elsewhere in src/ (its own definition and the __init__.py re-export
    # aside), or in demos/, scripts/ or perfbench/
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted((ROOT / "src" / "knotfoam").glob("*.py"))
               if p.name != "__init__.py"}
    outside = set()
    for folder in ("demos", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= _names([ast.parse(path.read_text(), str(path))])
    assert len(modules) > 10 and outside
    in_src = {path: _names(tree.body) for path, tree in modules.items()}
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
                for method in node.body:
                    if (not isinstance(method, ast.FunctionDef)
                            or method.name.startswith("_")):
                        continue
                    name = "%s.%s" % (node.name, method.name)
                    defined.add(name)
                    if name in TEST_ONLY:
                        continue
                    if method.name not in used | _names(
                            [n for n in node.body if n is not method]):
                        test_only.append("%s:%d %s" % (path.name, method.lineno,
                                                       name))
    assert not test_only, test_only
    assert set(TEST_ONLY) <= defined, set(TEST_ONLY) - defined
