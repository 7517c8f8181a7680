"""The rule from a degree to V_m lives in ``forms``: only ``cones`` and
``forms`` reach the facet normals of a mask or the V_m cache.

``forms._located`` looks V_m up once per facet mask of a stream of degrees.
This test parses the sources and fails when another module calls, reads or
imports ``_normals_of`` or ``_kernel_of_normals``, so no box consumer can
go back to building the normals of each degree itself.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "toricdiff"
RULE = {"_normals_of", "_kernel_of_normals"}


def rule_uses(tree):
    """Names of ``RULE`` that a module reads as a name or attribute, or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out & RULE


def test_only_cones_and_forms_reach_the_v_m_rule():
    users = {p.name: rule_uses(ast.parse(p.read_text())) for p in SRC.glob("*.py")}
    assert sorted(name for name, used in users.items() if used) == ["cones.py", "forms.py"]
    assert users["forms.py"] == RULE


def test_the_guard_sees_each_way_in():
    for source in (
        "cone._normals_of(mask)",
        "f = cone._normals_of",
        "from .forms import _kernel_of_normals",
        "forms._kernel_of_normals(normals, n, 0)",
    ):
        assert rule_uses(ast.parse(source)), source
    assert not rule_uses(ast.parse("cone._mask_of(m); forms._located(cone, points, 0)"))
