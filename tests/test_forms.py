import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricdiff import forms
from toricdiff.cones import Cone, NotInConeError
from toricdiff.forms import (
    FormExpression,
    FormTerm,
    degree_subspace,
    facet_subspace,
    to_form,
    wedge_matrix,
    wedge_subsets,
)
from toricdiff.linalg import GF, QQ, field_of_characteristic, subspace


@pytest.fixture(scope="module")
def quadric():
    return Cone([(0, 1), (2, -1)]).dual


@pytest.fixture(scope="module")
def orthant():
    return Cone([(1, 0), (0, 1)]).dual


class TestFacetSubspace:
    def test_quadric_facets_over_qq(self, quadric):
        f0, f1 = quadric.facets
        assert facet_subspace(f0, 0) == subspace(QQ, [(1, 0)])
        assert facet_subspace(f1, 0) == subspace(QQ, [(1, 2)])

    def test_quadric_facets_collapse_mod_2(self, quadric):
        f0, f1 = quadric.facets
        assert facet_subspace(f0, 2) == facet_subspace(f1, 2)
        assert facet_subspace(f1, 2).basis == ((1, 0),)

    def test_dimension_always_n_minus_one(self, quadric, orthant):
        for cone in (quadric, orthant):
            for f in cone.facets:
                for char in (0, 2, 3, 5):
                    assert facet_subspace(f, char).dim == 1


class TestDegreeSubspace:
    def test_interior_gets_everything(self, quadric):
        assert degree_subspace(quadric, (1, 1), 0).dim == 2
        assert degree_subspace(quadric, (2, 1), 3).dim == 2

    def test_on_one_facet(self, orthant):
        S = degree_subspace(orthant, (3, 0), 0)
        assert S == subspace(QQ, [(1, 0)])

    def test_origin_depends_on_characteristic(self, quadric):
        # over QQ the two facet lines only share 0; mod 2 they coincide
        assert degree_subspace(quadric, (0, 0), 0).dim == 0
        assert degree_subspace(quadric, (0, 0), 2).dim == 1
        assert degree_subspace(quadric, (0, 0), 3).dim == 0

    def test_outside_cone_rejected(self, quadric):
        with pytest.raises(NotInConeError):
            degree_subspace(quadric, (0, 1), 0)
        with pytest.raises(ValueError, match="0.5"):
            degree_subspace(quadric, (1, 0.5), 0)

    def test_scale_invariance(self, quadric):
        for m in ((1, 0), (1, 2), (1, 1), (0, 0)):
            for c in (2, 3, 7):
                scaled = tuple(c * x for x in m)
                assert degree_subspace(quadric, m, 5) == degree_subspace(quadric, scaled, 5)


class TestLocatedDegree:
    # V_m on the face through (2, 1) has the reduced basis (1, 1/2) over QQ
    # and (1, 2) over GF(3), so membership runs on a scaled column
    @pytest.fixture(scope="class")
    def normals(self):
        return tuple(f.normal for f in Cone([(2, 1), (0, 1)]).facets_containing((2, 1)))

    def test_w_is_read_at_the_pivots(self, normals):
        assert forms._located_degree(normals, (4, 2), 0)[1] == (4,)
        assert forms._located_degree(normals, (4, 2), 3)[1] == (1,)
        # (4, 5) is (1, 2) mod 3, on the face's line mod 3 only
        assert forms._located_degree(normals, (4, 5), 3)[1] == (1,)

    @pytest.mark.parametrize("m, char", [((4, 3), 0), ((4, 3), 3), ((4, 5), 0), ((1, 1), 5)])
    def test_a_degree_off_v_m_is_refused(self, normals, m, char):
        with pytest.raises(AssertionError, match="escaped its own subspace"):
            forms._located_degree(normals, m, char)


def test_verification_never_takes_the_reference_path(monkeypatch):
    # V_m is the kernel of the facet normals on every path; the saturated
    # face spans and their intersections are the reference only
    from toricdiff import cartier, cones, complexes, linalg

    def not_reached(*args, **kwargs):
        raise AssertionError("the reference path ran")

    for module, name in ((forms, "lattice_subspace"), (linalg, "intersect"), (cones, "saturate")):
        monkeypatch.setattr(module, name, not_reached)
    cone = Cone([(0, 1), (3, -1), (1, 1)]).dual
    assert degree_subspace(cone, (0, 0), 3).dim == 1
    assert complexes.poincare_check(cone, 2).passed
    report = cartier.verify_isomorphism(cone, 1, 3)
    assert report.passed and report.generator.passed
    sums = tuple(map(sum, zip(*complexes.cohomology_table(cone, 1, 2).entries.values())))
    assert complexes.oracle_full_complex(cone, 1, 2) == sums


class TestGradedPiece:
    def test_orthant_dims_are_binomials(self, orthant):
        # the degree-m piece of the a-forms has a basis indexed by the
        # a-subsets of a basis of V_m
        for m, dims in (((2, 3), (1, 2, 1)), ((2, 0), (1, 1, 0))):
            d = degree_subspace(orthant, m, 0).dim
            assert tuple(len(wedge_subsets(d, a)) for a in range(3)) == dims


class TestWedgeSubsets:
    def test_wedge_basis_indexing(self):
        assert wedge_subsets(3, 0) == ((),)
        assert wedge_subsets(3, 2) == ((0, 1), (0, 2), (1, 2))
        assert wedge_subsets(2, 3) == ()
        piece_like = wedge_subsets(4, 2)
        assert list(piece_like) == sorted(piece_like)


def sorting_sign(seq):
    """Sign of the permutation that sorts ``seq``, from its inversion count."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def reference_wedge(field, w, a):
    """``w ∧ -`` from level a to a+1, column by column: e_pos ∧ e_I = sign(pos, *I) e_J."""
    d = len(w)
    rows = list(itertools.combinations(range(d), a + 1))
    cols = list(itertools.combinations(range(d), a))
    M = [[0] * len(cols) for _ in rows]
    for j, I in enumerate(cols):
        for pos in set(range(d)) - set(I):
            i = rows.index(tuple(sorted((pos, *I))))
            M[i][j] += sorting_sign((pos, *I)) * w[pos]
    return [[field.of(x) for x in row] for row in M]


class TestWedgeMatrix:
    # coordinate vectors with and without zero entries, for every d <= 5
    VECTORS = [[(-1) ** k * (k + 2) for k in range(d)] for d in range(6)]
    VECTORS += [[k % 3 - 1 for k in range(d)] for d in range(1, 6)]
    VECTORS += [[5, 1]]  # GF(3): every entry is reduced, not only the negated ones

    @pytest.mark.parametrize("kind", ["int", "int-large", "fraction", "gf5", "gf3-unreduced"])
    def test_matches_the_sorting_sign(self, kind):
        field = {"gf5": GF(5), "gf3-unreduced": GF(3)}.get(kind, QQ)
        for raw in self.VECTORS:
            if kind == "fraction":
                w = [Fraction(x, 3) for x in raw]
            elif kind == "int-large":
                w = [x * 2**70 for x in raw]  # exact beyond any machine word
            else:
                w = [field.of(x) for x in raw] if kind == "gf5" else list(raw)
            for a in range(len(w) + 1):
                D = wedge_matrix(field, w, a)
                want = reference_wedge(field, w, a)
                width = len(wedge_subsets(len(w), a))
                assert len(D) == len(want) and all(len(row) == width for row in D), (w, a)
                assert D == tuple(map(tuple, want)), (w, a)
                if kind.startswith("int"):
                    assert all(type(x) is int for row in D for x in row)
                if field.characteristic:
                    assert all(0 <= x < field.characteristic for row in D for x in row)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=6), st.sampled_from([0, 2, 3, 5, 7]), st.data())
    def test_random_vectors_match_the_sorting_sign(self, raw, char, data):
        # the fill loop of wedge_matrix against a definition that never reads the template
        field = field_of_characteristic(char)
        w = [field.of(x) for x in raw] if char else raw
        a = data.draw(st.integers(0, len(w)))
        assert wedge_matrix(field, w, a) == tuple(map(tuple, reference_wedge(field, w, a)))


class TestForms:
    def test_single_generator(self):
        assert str(to_form((2, 0), [(1, ((1, 0),))])) == "x^(1,0) dx^(1,0)"

    def test_wedge_of_two(self):
        form = to_form((2, 2), [(1, ((1, 0), (0, 1)))])
        assert str(form) == "x^(1,1) dx^(1,0)∧dx^(0,1)"

    def test_coefficients_and_sums(self):
        form = to_form((1, 1), [(2, ((1, 0),)), (Fraction(1, 3), ((0, 1),))])
        assert str(form) == "1/3*x^(1,0) dx^(0,1) + 2*x^(0,1) dx^(1,0)"

    def test_zero_coefficients_dropped(self):
        assert str(to_form((1, 0), [(0, ((1, 0),))])) == "0"

    def test_zero_form_expression(self):
        assert str(FormExpression(())) == "0"
        assert to_form((1, 0), []) == FormExpression(())

    def test_negative_exponents_allowed(self):
        # a factor can exceed m coordinatewise; the monomial part then
        # carries negative entries, which is fine on the torus
        form = to_form((1, 0), [(1, ((1, 1),))])
        assert str(form) == "x^(0,-1) dx^(1,1)"

    def test_terms_sorted_by_factors(self):
        form = to_form((2, 2), [(1, ((0, 1),)), (1, ((1, 0),))])
        assert str(form) == "x^(2,1) dx^(0,1) + x^(1,2) dx^(1,0)"

    def test_term_structure(self):
        form = to_form((2, 4), [(1, ((1, 2),))])
        assert form.terms == (FormTerm(1, (1, 2), ((1, 2),)),)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(tuple),
    st.sampled_from([2, 3, 5, 7]),
)
@example((1, 2), 2)
@example((1, 0), 3)
def test_generator_shift_prints_the_monomial_factor(m, p):
    # the inverse Cartier map on generators: dx^m shifted to degree pm is
    # x^((p-1)m) dx^m, for any integer m and any p
    shifted = to_form(tuple(p * x for x in m), [(1, (m,))])
    expected = FormExpression((FormTerm(1, tuple((p - 1) * x for x in m), (m,)),))
    assert shifted == expected
    assert str(shifted) == str(expected)
