"""numpy has one job in the package: the int64 box scan in ``cones``.

Every exact matrix is a tuple of row tuples, so no other module needs numpy.
This test parses the sources and fails when numpy spreads again: when a
module other than ``cones`` imports it, when ``cones`` imports it anywhere but
at module level, or when a method other than the scan kernel uses it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "toricdiff"
SCAN_KERNEL = {"_scan", "_classify", "_point_mask"}


def numpy_imports(tree):
    """(node, bound name) for every import of numpy or a numpy submodule."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node, a.asname or "numpy") for a in node.names if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            out.extend((node, a.asname or a.name) for a in node.names)
    return out


def test_only_cones_imports_numpy():
    importers = sorted(p.name for p in SRC.glob("*.py") if numpy_imports(ast.parse(p.read_text())))
    assert importers == ["cones.py"]


def test_cones_uses_numpy_only_in_the_scan_kernel():
    tree = ast.parse((SRC / "cones.py").read_text())
    imports = numpy_imports(tree)
    assert all(node in tree.body for node, _ in imports), "numpy is imported below module level"
    names = {name for _, name in imports}

    def uses(node):
        return sum(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))

    kernel = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in SCAN_KERNEL]
    assert uses(tree) == sum(map(uses, kernel)) > 0
