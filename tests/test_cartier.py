import pytest

import toricdiff.cartier as cartier
from toricdiff.cartier import (
    CartierReport,
    PhiMap,
    check_chain_map,
    check_split,
    inverse_cartier_generator_check,
    phi,
    verify_isomorphism,
)
from toricdiff.complexes import DegreeComplex, degree_complex
from toricdiff.cones import Cone, NotInConeError
from toricdiff.forms import degree_subspace


@pytest.fixture(scope="module")
def quadric():
    return Cone([(0, 1), (2, -1)]).dual


@pytest.fixture(scope="module")
def orthant():
    return Cone([(1, 0), (0, 1)]).dual


class TestPhi:
    def test_shapes_and_degrees(self, quadric):
        ph = phi(quadric, (1, 1), 1, 2)
        assert ph.source_degree == (1, 1)
        assert ph.target_degree == (2, 2)
        assert ph.a == 1
        assert ph.matrix.shape == (2, 2)

    def test_identity_in_matching_bases(self, quadric, orthant):
        for cone in (quadric, orthant):
            for m in cone.lattice_points(2):
                sub = degree_subspace(cone, m, 3)
                for a in range(cone.ambient_rank + 1):
                    M = phi(cone, m, a, 3).matrix
                    k = M.shape[0]
                    assert all(
                        M[i, j] == (1 if i == j else 0)
                        for i in range(k)
                        for j in range(k)
                    )
                    assert sub == degree_subspace(cone, tuple(3 * x for x in m), 3)

    def test_rejects_composite_modulus(self, quadric):
        with pytest.raises(ValueError):
            phi(quadric, (1, 1), 1, 6)

    def test_rejects_outside_degrees(self, quadric):
        with pytest.raises(NotInConeError):
            phi(quadric, (0, 1), 1, 2)


class TestChecks:
    @pytest.mark.parametrize("p", [2, 3])
    def test_chain_map(self, quadric, p):
        result = check_chain_map(quadric, 2, p)
        assert result.passed
        assert result.checked == len(quadric.lattice_points(2))

    @pytest.mark.parametrize("p", [2, 3])
    def test_split(self, orthant, p):
        result = check_split(orthant, 2, p)
        assert result.passed

    def test_generator_identity_text(self, quadric):
        result = inverse_cartier_generator_check(quadric, 2, 2)
        assert result.passed
        # the origin is skipped: d of a constant is zero
        assert result.checked == len(quadric.lattice_points(2)) - 1

    def test_generator_identity_statement(self):
        # the one-form dx^m shifts to x^((p-1)m) dx^m; spot check the string
        from toricdiff.forms import to_form

        assert str(to_form((2, 4), [(1, ((1, 2),))])) == "x^(1,2) dx^(1,2)"
        assert str(to_form((3, 0), [(1, ((1, 0),))])) == "x^(2,0) dx^(1,0)"


class TestVerifyIsomorphism:
    def test_quadric_p2_report(self, quadric):
        report = verify_isomorphism(quadric, 2, 2)
        assert report.passed
        assert report.p == 2
        assert report.bound == 2
        assert report.target_bound == 4
        assert len(report.levels) == 3
        for lv in report.levels:
            assert lv.chain_map_ok and lv.split_ok and lv.isomorphism_ok
            assert lv.source_dim_total == lv.cohomology_dim_total
        assert report.concentration_ok
        assert report.violations == ()

    def test_concentration_explicit(self, quadric):
        from toricdiff.complexes import cohomology_table

        table = cohomology_table(quadric, 4, 2)
        for m, h in table.entries.items():
            if any(x % 2 for x in m):
                assert h == (0, 0, 0)

    def test_json_round_trip(self, orthant):
        report = verify_isomorphism(orthant, 2, 3)
        again = CartierReport.from_json(report.to_json())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_text_format(self, orthant):
        text = verify_isomorphism(orthant, 1, 2).to_text()
        assert "overall: PASS" in text
        assert "a=0" in text and "a=2" in text

    def test_bound_validation(self, orthant):
        with pytest.raises(ValueError):
            verify_isomorphism(orthant, 0, 2)

    def test_level_dim_bookkeeping(self, orthant):
        # over the smooth chart the source dims are binomial sums driven by
        # how many coordinates of m vanish
        report = verify_isomorphism(orthant, 2, 2)
        by_a = {lv.a: lv.source_dim_total for lv in report.levels}
        sources = orthant.lattice_points(2)
        from math import comb

        for a in range(3):
            expected = sum(
                comb(sum(1 for x in m if x != 0), a) for m in sources
            )
            assert by_a[a] == expected


class TestNegativeControls:
    """Injected defects on one degree type must fail once per source degree.

    On the orthant with p=3 and bound 3 the nine interior source degrees
    (1..3)^2 share one type (no facets through m or pm, pm = 0 mod 3), so
    the per-type memo computes the defect once and must replay it nine times.
    """

    P, BOUND = 3, 3
    INTERIOR = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]

    def test_non_identity_shift_fails_split(self, orthant, monkeypatch):
        calls = []

        def broken_phi(cone, m, a, p):
            got = phi(cone, m, a, p)
            if a == 1 and cone.facets_containing(m) == ():
                calls.append(m)
                M = got.matrix.copy()
                M[0, 1] = 1  # invertible, not the identity
                got = PhiMap(got.source_degree, got.target_degree, a, M)
            return got

        monkeypatch.setattr(cartier, "phi", broken_phi)
        wording = "a=1: projection composed with the shift is not the identity"
        split = check_split(orthant, self.BOUND, self.P)
        assert not split.passed
        assert split.violations == tuple(f"degree {m}, {wording}" for m in self.INTERIOR)
        report = verify_isomorphism(orthant, self.BOUND, self.P)
        assert not report.passed
        assert [lv.split_ok for lv in report.levels] == [True, False, True]
        assert report.violations == tuple(f"degree {m}, {wording}" for m in self.INTERIOR)
        # computed once per check, replayed for each of the nine degrees
        assert len(calls) == 2
        # the chain-map condition cannot see the matrix: the differential at
        # a degree divisible by p is zero, so it needs its own control below
        assert check_chain_map(orthant, self.BOUND, self.P).passed

    def test_perturbed_target_differential_fails_chain_map(self, orthant, monkeypatch):
        def broken_complex(cone, m, char):
            got = degree_complex(cone, m, char)
            if cone.facets_containing(m) == ():
                first = got.differentials[0].copy()
                first[0, 0] = 1
                got = DegreeComplex(got.degree, char, got.dims, (first,) + got.differentials[1:])
            return got

        monkeypatch.setattr(cartier, "degree_complex", broken_complex)
        chain = check_chain_map(orthant, self.BOUND, self.P)
        assert not chain.passed
        assert chain.violations == tuple(
            f"degree {m}, a=0: shift image is not closed" for m in self.INTERIOR
        )
        report = verify_isomorphism(orthant, self.BOUND, self.P)
        assert not report.passed
        assert [lv.chain_map_ok for lv in report.levels] == [False, True, True]
        assert report.violations == tuple(
            v
            for m in self.INTERIOR
            for v in (
                f"degree {m}, a=0: shift image is not closed",
                f"degree {m}, a=1: induced rank 1 of 2, cohomology dimension 2",
            )
        )
