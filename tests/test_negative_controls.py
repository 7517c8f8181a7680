"""One table of negative controls: every verdict of the CLI can read FAIL.

Each row runs a command through :func:`toricdiff.cli.main` twice.  Without
the mutation the verdict must read PASS and the exit status be 0; with it,
the same verdict line must read FAIL and the exit status be 1.  The
mutations sit at seams that any way of computing the numbers must go
through: the coordinates w of a degree m in V_m (which fix its
differential), the wedge matrices built from them, and the ranks of the
whole-box oracle.  Each mutation records what it changed, so a row whose
mutation never fires fails too.
"""

import pytest

from toricdiff import cartier, complexes, forms
from toricdiff.cli import main
from tests.conftest import CONE_DIR


def zero_w_at(module, degree):
    """Degrees located by ``module`` give w = 0 at ``degree``, as if m vanished in V_m."""

    def mutate(monkeypatch):
        real = module._located_degree
        fired = []

        def located(normals, m, char):
            sub, w = real(normals, m, char)
            if tuple(m) == degree:
                fired.append(m)
                w = tuple(x * 0 for x in w)
            return sub, w

        monkeypatch.setattr(module, "_located_degree", located)
        return fired

    return mutate


def rank_off_by_one_at(level):
    """The oracle's sparse rank of the differential out of ``level`` gains one."""

    def mutate(monkeypatch):
        real = complexes.sparse_rank
        calls, fired = [], []

        def ranked(field, columns):
            out = real(field, columns)
            if len(calls) == level:
                fired.append(level)
                out += 1
            calls.append(out)
            return out

        monkeypatch.setattr(complexes, "sparse_rank", ranked)
        return fired

    return mutate


def wedge_sign_flipped(d, a):
    """The first entry of the wedge template of level a of k^d changes sign.

    The box path has already proven the template of k^d, so only the
    matrices built from it afterwards see the flip.
    """

    def mutate(monkeypatch):
        real = forms._wedge_template
        fired = []

        def template(d_, a_):
            out = real(d_, a_)
            if (d_, a_) == (d, a):
                fired.append((d, a))
                (row, col, odd, pos), *rest = out
                out = ((row, col, not odd, pos), *rest)
            return out

        monkeypatch.setattr(forms, "_wedge_template", template)
        return fired

    return mutate


def cone(name):
    return str(CONE_DIR / f"{name}.json")


ROWS = [
    pytest.param(
        ["poincare", cone("square-3d"), "--bound", "2"],
        zero_w_at(complexes, (0, 1, 0)),
        "poincare check over QQ",
        id="poincare-w-zeroed-at-a-nonzero-degree",
    ),
    pytest.param(
        ["oracle", cone("square-3d"), "--p", "0", "--bound", "2"],
        rank_off_by_one_at(1),
        "agreement:",
        id="oracle-sparse-rank-off-by-one",
    ),
    pytest.param(
        ["oracle", cone("square-3d"), "--p", "0", "--bound", "2"],
        wedge_sign_flipped(3, 1),
        "agreement:",
        id="oracle-wedge-template-sign-flipped",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        zero_w_at(complexes, (1, 0)),
        "off-multiple degrees carry no cohomology",
        id="cartier-concentration-w-zeroed-off-the-multiples",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        zero_w_at(cartier, (1, 1)),
        "generator identity:",
        id="cartier-generator-identity-w-zeroed-at-a-source",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        zero_w_at(cartier, (1, 1)),
        "overall:",
        id="cartier-overall-w-zeroed-at-a-source",
    ),
]


def verdict_line(out, verdict):
    lines = [line for line in out.splitlines() if verdict in line]
    assert len(lines) == 1, out
    return lines[0]


@pytest.mark.parametrize("argv, mutate, verdict", ROWS)
def test_mutation_turns_the_verdict_to_fail(argv, mutate, verdict, monkeypatch, capsys):
    assert main(argv) == 0
    assert "PASS" in verdict_line(capsys.readouterr().out, verdict)
    fired = mutate(monkeypatch)
    code = main(argv)
    out = capsys.readouterr().out
    assert fired, "the mutation never fired"
    assert "FAIL" in verdict_line(out, verdict)
    assert code == 1
