"""One table of negative controls: every verdict of the CLI can read FAIL.

Each row runs a command through :func:`toricdiff.cli.main` twice.  Without
the mutation the verdict must read PASS and the exit status be 0; with it,
the same verdict line must read FAIL and the exit status be 1.  The
mutations sit at seams that any way of computing the numbers must go
through: the coordinates w of a degree m in V_m (which fix its
differential), the wedge matrices built from them, the shift matrices of
:func:`toricdiff.cartier.phi`, and the ranks of the whole-box oracle.
Each mutation records what it changed, so a row whose mutation never
fires fails too.  The same mutations make the failing reports of the last
test, which holds the JSON output of a check to the dict the check returns.
"""

import json
import re

import pytest

from toricdiff import cartier, complexes, forms
from toricdiff.cli import main
from tests.conftest import CONE_DIR, load_exponent_cone


def w_at(module, degree, change):
    """Degrees located by ``module`` give w = ``change(w)`` at ``degree``."""

    def mutate(monkeypatch):
        real = module._located_degree
        fired = []

        def located(normals, m, char):
            sub, w = real(normals, m, char)
            if tuple(m) == degree:
                fired.append(m)
                w = change(w)
            return sub, w

        monkeypatch.setattr(module, "_located_degree", located)
        return fired

    return mutate


def zeroed(w):
    """w = 0, as if m vanished in V_m."""
    return tuple(x * 0 for x in w)


def nonzero(w):
    """A first coordinate of 1, as if m did not vanish in V_m."""
    return (1,) + w[1:]


def sheared_shift_at(degree):
    """The level-1 shift matrix at ``degree`` gains an entry above the
    diagonal: still invertible, no longer the identity."""

    def mutate(monkeypatch):
        real = cartier.phi
        fired = []

        def shifted(cone, m, p):
            out = real(cone, m, p)
            if tuple(m) == degree:
                fired.append(m)
                M = [list(row) for row in out[1]]
                M[0][1] = 1
                out = (out[0], tuple(map(tuple, M)), *out[2:])
            return out

        monkeypatch.setattr(cartier, "phi", shifted)
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


def level_flag(a, flag):
    """The verdict of one flag on the per-level line of wedge level a."""
    return rf"a={a}: sources=.*{flag}"


ROWS = [
    pytest.param(
        ["poincare", cone("square-3d"), "--bound", "2"],
        w_at(complexes, (0, 1, 0), zeroed),
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
        w_at(complexes, (1, 0), zeroed),
        "off-multiple degrees carry no cohomology",
        id="cartier-concentration-w-zeroed-off-the-multiples",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        w_at(cartier, (1, 1), zeroed),
        "generator identity:",
        id="cartier-generator-identity-w-zeroed-at-a-source",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        w_at(cartier, (1, 1), zeroed),
        "overall:",
        id="cartier-overall-w-zeroed-at-a-source",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        sheared_shift_at((1, 1)),
        level_flag(1, "splitting"),
        id="cartier-splitting-shift-sheared-at-a-source",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        w_at(complexes, (2, 2), nonzero),
        level_flag(0, "chain map"),
        id="cartier-chain-map-w-nonzero-at-a-target",
    ),
    pytest.param(
        ["cartier", cone("a1-quadric"), "--p", "2", "--bound", "1"],
        w_at(complexes, (2, 2), nonzero),
        level_flag(2, "isomorphism"),
        id="cartier-isomorphism-w-nonzero-at-a-target",
    ),
]


def verdict_of(out, verdict):
    """PASS or FAIL: the first such word after ``verdict``, a pattern that one
    line of the output matches."""
    pattern = re.compile(rf"{verdict}.*?\b(PASS|FAIL)\b")
    found = [m[1] for m in map(pattern.search, out.splitlines()) if m]
    assert len(found) == 1, out
    return found[0]


@pytest.mark.parametrize("argv, mutate, verdict", ROWS)
def test_mutation_turns_the_verdict_to_fail(argv, mutate, verdict, monkeypatch, capsys):
    assert main(argv) == 0
    assert verdict_of(capsys.readouterr().out, verdict) == "PASS"
    fired = mutate(monkeypatch)
    code = main(argv)
    out = capsys.readouterr().out
    assert fired, "the mutation never fired"
    assert verdict_of(out, verdict) == "FAIL"
    assert code == 1


POINCARE = ["poincare", "square-3d", "--bound", "2"]
CARTIER = ["cartier", "a1-quadric", "--p", "2", "--bound", "1"]
DOCUMENTS = [
    pytest.param(POINCARE, lambda c: complexes.poincare_check(c, 2), None, id="poincare-passing"),
    pytest.param(
        POINCARE,
        lambda c: complexes.poincare_check(c, 2),
        w_at(complexes, (0, 1, 0), zeroed),
        id="poincare-failing",
    ),
    pytest.param(CARTIER, lambda c: cartier.verify_isomorphism(c, 1, 2), None, id="cartier-passing"),
    pytest.param(
        CARTIER,
        lambda c: cartier.verify_isomorphism(c, 1, 2),
        sheared_shift_at((1, 1)),
        id="cartier-failing",
    ),
]


@pytest.mark.parametrize("argv, check, mutate", DOCUMENTS)
def test_json_output_is_the_returned_report(argv, check, mutate, monkeypatch, capsys):
    command, name, *flags = argv
    fired = mutate(monkeypatch) if mutate else None
    code = main([command, cone(name), *flags, "--format", "json"])
    out = capsys.readouterr().out
    report = check(load_exponent_cone(name))
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["passed"] is (mutate is None)
    assert code == (0 if mutate is None else 1)
    assert fired is None or fired, "the mutation never fired"
