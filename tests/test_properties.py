"""Property based invariants for the exact linear algebra layer, plus a
randomized structural battery over small cones.

The hypothesis tests pin down algebraic contracts (normal forms, kernels,
saturation, reduction mod p) on arbitrary small integer matrices.  The
structural battery draws a few hundred random full dimensional cones and
asserts only identities that follow from the definitions, so it exercises
the whole pipeline without any trusted reference values.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.structural import random_exponent_cones, run_structural_suite
from toricdiff import cones, forms
from toricdiff.forms import facet_subspace
from toricdiff.linalg import (
    GF,
    QQ,
    Subspace,
    _primitive,
    field_of_characteristic,
    full_space,
    hnf,
    imat,
    intersect,
    kernel,
    lattice_subspace,
    left_kernel,
    mat_mul,
    rank,
    saturate,
    subspace,
    sum_spaces,
)

entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def det_q(M):
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        for i in range(col + 1, n):
            f = M[i][col] / M[col][col]
            M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= M[i][i]
    return out


class TestPrimitive:
    @given(st.lists(st.one_of(entries, st.fractions(max_denominator=12)), max_size=5))
    @example([])
    @example([0, Fraction(0), 0])
    @settings(deadline=None)
    def test_primitive_vector_on_the_line(self, vec):
        out = _primitive(vec)
        assert isinstance(out, tuple) and all(type(x) is int for x in out)
        if any(vec):
            assert gcd(*out) == 1
            i = next(i for i, x in enumerate(vec) if x)
            c = out[i] / Fraction(vec[i])
            assert c > 0 and tuple(c * x for x in vec) == out
        else:
            assert out == (0,) * len(vec)
        assert _primitive(out) == out

    def test_rays_refuse_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            cones._primitive((0, 0, 0))


class TestHermiteProperties:
    @given(int_matrix())
    @settings(deadline=None)
    def test_transform_reproduces_h(self, rows):
        A = imat(rows)
        H, U = hnf(A)
        assert mat_mul(QQ, U, A) == H
        assert abs(det_q(U)) == 1

    @given(int_matrix())
    @settings(deadline=None)
    def test_idempotent(self, rows):
        H, _ = hnf(rows)
        H2, _ = hnf(H)
        assert H2 == H

    @given(int_matrix())
    @settings(deadline=None)
    def test_row_space_preserved(self, rows):
        H, _ = hnf(rows)
        a = subspace(QQ, rows)
        b = subspace(QQ, H, ambient_dim=a.ambient_dim)
        assert a == b

    @given(int_matrix())
    @settings(deadline=None)
    def test_left_kernel_annihilates(self, rows):
        A = imat(rows)
        K = left_kernel(A)
        assert len(K) == len(A) - rank(QQ, [[Fraction(x) for x in r] for r in rows])
        assert not any(map(any, mat_mul(QQ, K, A)))


class TestSaturationProperties:
    @given(int_matrix())
    @settings(deadline=None)
    def test_idempotent(self, rows):
        L = saturate(rows)
        again = saturate(L.basis, ambient_rank=L.ambient_rank)
        assert again.basis == L.basis

    @given(int_matrix())
    @settings(deadline=None)
    def test_same_rational_span(self, rows):
        L = saturate(rows)
        a = subspace(QQ, rows)
        b = subspace(QQ, list(L.basis), ambient_dim=L.ambient_rank)
        assert a == b

    @given(int_matrix(), st.sampled_from([2, 3, 5, 7]))
    @settings(deadline=None)
    def test_reduction_keeps_rank(self, rows, p):
        L = saturate(rows)
        assert lattice_subspace(L, GF(p)).dim == L.rank

    @given(int_matrix(), st.sampled_from([2, 3, 5]))
    @settings(deadline=None)
    def test_plain_reduction_only_loses_rank(self, rows, p):
        rq = rank(QQ, [[Fraction(x) for x in row] for row in rows])
        field = GF(p)
        rp = subspace(field, [[field.of(x) for x in row] for row in rows]).dim
        assert rp <= rq


class TestKernelProperties:
    @given(int_matrix(), st.sampled_from([0, 2, 3, 5]))
    @settings(deadline=None)
    def test_rank_nullity(self, rows, char):
        field = QQ if char == 0 else GF(char)
        M = tuple(tuple(field.of(x) for x in row) for row in rows)
        K = kernel(field, M)
        assert K.dim == len(M[0]) - rank(field, M)
        for v in K.basis:
            image = mat_mul(field, M, tuple((c,) for c in v))
            assert all(x == field.zero for row in image for x in row)


@st.composite
def two_subspaces(draw):
    char = draw(st.sampled_from([0, 2, 3, 5]))
    field = QQ if char == 0 else GF(char)
    n = draw(st.integers(1, 4))
    mats = []
    for _ in range(2):
        nrows = draw(st.integers(0, n))
        rows = [
            [field.of(draw(entries)) for _ in range(n)] for _ in range(nrows)
        ]
        mats.append(subspace(field, rows, ambient_dim=n))
    return mats[0], mats[1]


class TestSubspaceLattice:
    @given(two_subspaces())
    @settings(deadline=None)
    def test_intersection_commutes(self, pair):
        S, T = pair
        assert intersect(S, T) == intersect(T, S)

    @given(two_subspaces())
    @settings(deadline=None)
    def test_intersection_bounds(self, pair):
        S, T = pair
        meet = intersect(S, T)
        assert meet.is_subspace_of(S) and meet.is_subspace_of(T)
        assert intersect(S, S) == S

    @given(two_subspaces())
    @settings(deadline=None)
    def test_dimension_formula(self, pair):
        S, T = pair
        assert intersect(S, T).dim + sum_spaces(S, T).dim == S.dim + T.dim

    @given(two_subspaces())
    @settings(deadline=None)
    def test_canonical_equality(self, pair):
        S, T = pair
        if S.basis == T.basis:
            assert S == T and hash(S) == hash(T)
        rebuilt = Subspace(S.field, S.ambient_dim, S.basis)
        assert rebuilt == S


def test_structural_battery():
    cones, checks = run_structural_suite(seed=20260819, cone_count=200)
    assert cones == 200
    assert checks > 5000


def test_vm_is_the_kernel_of_the_normals():
    # the box paths take V_m as the kernel of the reduced facet normals; hold
    # it against the paper's definition, the intersection of the saturated
    # face spans reduced to the field, on arbitrary sets of facets (faces or
    # not) of random cones and two cones with a line
    rng = random.Random(20261019)
    with_lines = [
        cones.Cone([(1, 0), (-1, 0), (0, 1)]),
        cones.Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 2), (0, 2, -1)]),
    ]
    cases = 0
    for cone in itertools.chain(random_exponent_cones(rng, 60, max_rank=5), with_lines):
        n, facets = cone.ambient_rank, cone.facets
        for f in facets:
            assert gcd(*f.normal) == 1, f.normal
        subsets = [s for k in range(len(facets) + 1) for s in itertools.combinations(facets, k)]
        if len(subsets) > 40:
            subsets = [(), facets, *rng.sample(subsets, 38)]
        for chosen in subsets:
            normals = tuple(f.normal for f in chosen)
            for char in (0, 2, 3, 5, 7):
                want = full_space(field_of_characteristic(char), n)
                for f in chosen:
                    want = intersect(want, facet_subspace(f, char))
                assert forms._kernel_of_normals(normals, n, char)[0] == want, (cone, normals, char)
                cases += 1
    assert cases > 3000
