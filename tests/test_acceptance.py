"""End-to-end acceptance checks for the verification pipeline.

Each test covers one advertised guarantee and emits a single verdict line
(repeated by the conftest summary hook after the run).  Expected values are
always produced by a second route: an independent elimination codepath, a
dimension count, or a hand-checkable identity, never by the code under
test.
"""

import time
from math import comb

import pytest

from tests.conftest import cone_points, load_exponent_cone, record_acceptance
from tests.structural import run_structural_suite
from toricdiff.cartier import verify_isomorphism
from toricdiff.complexes import (
    NoVertexError,
    cohomology_table,
    oracle_full_complex,
    poincare_check,
)
from toricdiff.forms import degree_subspace
from toricdiff.linalg import GF, lattice_subspace, saturate, subspace

PRIMES = (2, 3, 5)


def verdict(num, label, ok):
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    record_acceptance(line)
    assert ok, line


def test_frobenius_shift_suite(corpus):
    """The isomorphism report and the generator identity on the whole corpus."""
    start = time.perf_counter()
    ok = True
    runs = 0
    for cone in corpus.values():
        for p in PRIMES:
            report = verify_isomorphism(cone, 4, p)
            ok = ok and report["generator_identity"]["passed"] and report["passed"]
            runs += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(
        1,
        f"shift suite, {len(corpus)} cones x p in {PRIMES}, box 4, "
        f"{elapsed:.1f}s",
        ok,
    )


def test_cohomology_concentration(corpus):
    """Mod p cohomology lives only in p-divisible degrees, and at a
    divisible degree p*m the dimensions are the binomials forced by the
    vanishing differential on the wedge powers of V_m."""
    ok = True
    checked = 0
    for cone in corpus.values():
        for p in PRIMES:
            table = cohomology_table(cone, bound=4 * p, char=p)
            for m, h in table.entries.items():
                if any(x % p for x in m):
                    ok = ok and not any(h)
                else:
                    quotient = tuple(x // p for x in m)
                    d = degree_subspace(cone, quotient, p).dim
                    expected = tuple(comb(d, a) for a in range(len(h)))
                    ok = ok and h == expected
                checked += 1
    verdict(2, f"concentration in p-divisible degrees, {checked} degrees", ok)


def test_characteristic_zero_exactness(corpus):
    """Every nonzero degree is exact over the rationals when the exponent
    cone has a vertex; the vertexless cone is refused.  Checked both via
    the report and directly on the raw table."""
    ok = True
    total = 0
    for cone in corpus.values():
        report = poincare_check(cone, bound=4)
        ok = ok and report["passed"] and not report["violations"]
        total += report["checked"]
        table = cohomology_table(cone, bound=4, char=0)
        origin = (0,) * cone.ambient_rank
        unit = (1,) + (0,) * cone.ambient_rank
        for m, h in table.entries.items():
            ok = ok and h == (unit if m == origin else (0,) * len(unit))
    degenerate = load_exponent_cone("halfplane-degenerate")
    with pytest.raises(NoVertexError):
        poincare_check(degenerate, bound=2)
    verdict(3, f"rational exactness, {total} degrees plus vertex gate", ok)


def test_oracle_agreement(corpus):
    """Degreewise tables must sum to the cohomology of the whole truncated
    complex, computed without degree splitting by sparse elimination."""
    ok = True
    cases = 0
    for cone in corpus.values():
        for bound in (1, 2, 3):
            for char in (0, 2, 3):
                table = cohomology_table(cone, bound=bound, char=char)
                sums = [0] * (cone.ambient_rank + 1)
                for h in table.entries.values():
                    for a, x in enumerate(h):
                        sums[a] += x
                ok = ok and tuple(sums) == oracle_full_complex(cone, bound, char)
                cases += 1
    verdict(4, f"split vs unsplit totals, {cases} cone/char/box cases", ok)


def test_orthant_binomial_dimensions(corpus):
    """On a coordinate orthant the level a piece in degree m has dimension
    (support size choose a), in every characteristic."""
    ok = True
    degrees = 0
    for name in ("orthant-2", "orthant-3"):
        cone = corpus[name]
        for m in cone_points(cone, 4):
            supp = sum(1 for x in m if x)
            for char in (0, 2):
                # level a is the a-th wedge power of V_m, so dim V_m fixes them all
                ok = ok and degree_subspace(cone, m, char).dim == supp
            degrees += 1
    verdict(5, f"orthant level dimensions, {degrees} degrees", ok)


def test_saturation_mod_two():
    """Reducing the saturation of the row lattice of (2, 4) keeps the line
    mod 2; reducing the raw rows loses it.  The same collapse shows up on
    the quadric cone at the origin."""
    lattice = saturate([[2, 4]])
    saturated_dim = lattice_subspace(lattice, GF(2)).dim
    field = GF(2)
    naive_dim = subspace(field, [[field.of(2), field.of(4)]]).dim
    quadric = load_exponent_cone("a1-quadric")
    origin_mod_two = degree_subspace(quadric, (0, 0), 2).dim
    origin_rational = degree_subspace(quadric, (0, 0), 0).dim
    ok = (
        lattice.basis == ((1, 2),)
        and saturated_dim == 1
        and naive_dim == 0
        and origin_mod_two == 1
        and origin_rational == 0
    )
    verdict(6, "saturation before reduction (row data (2,4))", ok)


def test_random_cone_battery():
    """Definitional identities over a few hundred random cones."""
    cones, checks = run_structural_suite(seed=7, cone_count=200)
    ok = cones == 200 and checks > 5000
    verdict(7, f"random battery, {cones} cones, {checks} identities", ok)
