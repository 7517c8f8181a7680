from fractions import Fraction

import pytest

from toricdiff.linalg import (
    _FIELD_CACHE_SIZE,
    GF,
    QQ,
    PrimeField,
    Subspace,
    full_space,
    hnf,
    identity_matrix,
    imat,
    intersect,
    is_prime,
    kernel,
    left_kernel,
    mat_mul,
    rank,
    reduce_mod_p,
    saturate,
    sparse_rank,
    subspace,
    sum_spaces,
    zero_space,
)


def is_unimodular(U):
    H, _ = hnf(U)
    return H == identity_matrix(len(U))


class TestHNF:
    def test_single_row(self):
        H, U = hnf([[2, 4]])
        assert H == ((2, 4),)
        assert U == ((1,),)

    def test_transform_relation(self):
        A = imat([[2, 0], [0, 2], [1, 1]])
        H, U = hnf(A)
        assert mat_mul(QQ, U, A) == H
        assert is_unimodular(U)
        assert H == ((1, 1), (0, 2), (0, 0))

    def test_idempotent(self):
        A = [[3, 1, 2], [0, 5, 1], [6, 2, 4]]
        H, _ = hnf(A)
        H2, _ = hnf(H)
        assert H == H2

    def test_negative_pivots_normalized(self):
        H, _ = hnf([[-3, 0], [0, -7]])
        assert H == ((3, 0), (0, 7))

    def test_above_pivot_reduced(self):
        H, _ = hnf([[1, 5], [0, 3]])
        assert H == ((1, 2), (0, 3))

    def test_empty_shapes(self):
        H, U = hnf([], ncols=3)
        assert H == () and U == ()
        H, U = hnf([[], []], ncols=0)
        assert H == ((), ()) and U == ((1, 0), (0, 1))

    def test_rejects_ragged_and_floats(self):
        with pytest.raises(ValueError):
            imat([[1, 2], [3]])
        with pytest.raises(ValueError):
            imat([[1.5, 2]])
        with pytest.raises(ValueError):
            imat([[True, False]])


class TestLeftKernel:
    def test_dependent_rows(self):
        K = left_kernel(imat([[1, 1], [2, 2]]))
        assert K == ((2, -1),)

    def test_full_rank_rows(self):
        K = left_kernel(imat([[1, 0], [0, 1]]))
        assert K == ()

    def test_annihilates(self):
        A = imat([[2, 4, 6], [1, 2, 3], [0, 1, 1]])
        K = left_kernel(A)
        assert all(x == 0 for row in mat_mul(QQ, K, A) for x in row)


class TestSaturate:
    def test_index_two_sublattice(self):
        assert saturate([[2, 4]]).basis == ((1, 2),)

    def test_already_saturated(self):
        L = saturate([[1, 2], [0, 3]])
        again = saturate(L.basis, L.ambient_rank)
        assert again == L

    def test_empty(self):
        L = saturate([], ambient_rank=3)
        assert L.basis == () and L.rank == 0

    def test_full(self):
        L = saturate([[2, 0], [0, 3]])
        assert L.basis == ((1, 0), (0, 1))

    def test_spans_same_rational_space(self):
        L = saturate([[2, 4, 0], [0, 0, 5]])
        S1 = subspace(QQ, [[2, 4, 0], [0, 0, 5]])
        S2 = subspace(QQ, L.basis, 3)
        assert S1 == S2


class TestReduceModP:
    def test_regression_non_primitive_span(self):
        # the saturated span of (2,4) is (1,2), which survives reduction;
        # reducing the raw generator instead would collapse to zero
        L = saturate([[2, 4]])
        S = reduce_mod_p(L, 2)
        assert S.dim == 1
        assert S.basis == ((1, 0),)
        naive = subspace(GF(2), [[2, 4]], 2)
        assert naive.dim == 0

    def test_dimension_preserved(self):
        L = saturate([[1, 2, 3], [0, 1, 7]])
        for p in (2, 3, 5, 7):
            assert reduce_mod_p(L, p).dim == L.rank


class TestFields:
    def test_rationals(self):
        assert QQ.of(2) == Fraction(2)
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        assert QQ.characteristic == 0

    def test_prime_field(self):
        F = GF(7)
        assert F.of(-1) == 6
        assert F.mul(3, 5) == 1
        assert F.inv(3) == 5
        assert F.of(Fraction(1, 2)) == 4

    def test_rejects_composite_and_huge(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(2**31 + 11)
        with pytest.raises(ZeroDivisionError):
            GF(5).inv(0)

    def test_field_cache_is_bounded(self):
        primes = [p for p in range(2, 10**4) if is_prime(p)][: 2 * _FIELD_CACHE_SIZE]
        for p in primes:
            GF(p)
        assert GF.cache_info().currsize <= _FIELD_CACHE_SIZE
        # fields compare by value, so an evicted modulus rebuilds an equal field
        assert all(GF(p) == PrimeField(p) for p in primes)

    def test_is_prime_small(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestRank:
    def test_char_zero_fraction_free(self):
        assert rank(QQ, [[1, 2], [2, 4]]) == 1
        assert rank(QQ, [[1, 2], [3, 4]]) == 2
        assert rank(QQ, [[Fraction(1, 2), 1], [1, 2]]) == 1

    def test_mod_p(self):
        assert rank(GF(2), [[2, 4], [1, 1]]) == 1
        assert rank(GF(3), [[2, 4], [1, 1]]) == 2

    def test_empty(self):
        assert rank(QQ, ()) == 0
        assert rank(GF(5), ((), (), ())) == 0

    def test_drop_mod_p_only_for_unsaturated(self):
        A = [[2, 4]]
        assert rank(QQ, A) == 1
        assert rank(GF(2), A) == 0


class TestSubspace:
    def test_canonical_equality(self):
        S1 = subspace(QQ, [[2, 0], [2, 2]])
        S2 = subspace(QQ, [[1, 0], [0, 1]])
        assert S1 == S2
        assert S1.dim == 2

    def test_contains_and_coordinates(self):
        S = subspace(QQ, [[1, 0, 1], [0, 1, 1]])
        assert S.contains((1, 1, 2))
        assert S.coordinates_of((1, 1, 2)) == (Fraction(1), Fraction(1))
        assert not S.contains((1, 0, 0))
        assert S.coordinates_of((1, 0, 0)) is None

    def test_zero_and_full(self):
        Z = zero_space(GF(3), 2)
        F = full_space(GF(3), 2)
        assert Z.dim == 0 and F.dim == 2
        assert Z.contains((0, 0)) and not Z.contains((1, 0))
        assert F.coordinates_of((2, 1)) == (2, 1)

    def test_is_subspace_of(self):
        small = subspace(QQ, [[1, 1]])
        big = full_space(QQ, 2)
        assert small.is_subspace_of(big)
        assert not big.is_subspace_of(small)

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intersect(subspace(QQ, [[1, 0]]), subspace(GF(2), [[1, 0]]))
        with pytest.raises(ValueError):
            intersect(subspace(QQ, [[1, 0]]), subspace(QQ, [[1, 0, 0]]))

    def test_hashable(self):
        S1 = subspace(QQ, [[2, 0]])
        S2 = subspace(QQ, [[1, 0]])
        assert hash(S1) == hash(S2)
        assert len({S1, S2}) == 1


class TestKernel:
    def test_spec_example(self):
        K = kernel(QQ, [[1, 1], [2, 2]])
        assert K.basis == ((Fraction(1), Fraction(-1)),)

    def test_rank_nullity(self):
        M = [[1, 2, 3], [4, 5, 6]]
        for field in (QQ, GF(5)):
            assert kernel(field, M).dim == 3 - rank(field, M)

    def test_kernel_is_annihilated(self):
        M = imat([[1, 2, 3], [0, 1, 1]])
        K = kernel(QQ, M)
        for row in K.basis:
            assert all(v == 0 for (v,) in mat_mul(QQ, M, tuple((x,) for x in row)))

    def test_no_rows(self):
        assert kernel(GF(2), [], ncols=3).dim == 3


class TestIntersect:
    def test_plane_meets_line(self):
        plane = subspace(QQ, [[1, 0, 0], [0, 1, 0]])
        line = subspace(QQ, [[1, 1, 0]])
        assert intersect(plane, line) == line

    def test_two_planes_in_three_space(self):
        P1 = subspace(QQ, [[1, 0, 0], [0, 1, 0]])
        P2 = subspace(QQ, [[0, 1, 0], [0, 0, 1]])
        assert intersect(P1, P2) == subspace(QQ, [[0, 1, 0]])

    def test_dimension_formula(self):
        P1 = subspace(GF(3), [[1, 0, 2], [0, 1, 1]])
        P2 = subspace(GF(3), [[1, 1, 0], [0, 0, 1]])
        meet = intersect(P1, P2)
        join = sum_spaces(P1, P2)
        assert meet.dim + join.dim == P1.dim + P2.dim

    def test_mod_p_reductions_can_meet_larger_than_lattices(self):
        # the lattices span{(1,0)} and span{(1,2)} meet only in 0, but both
        # reduce mod 2 to the same line; intersecting after reduction keeps it
        A = reduce_mod_p(saturate([[1, 0]]), 2)
        B = reduce_mod_p(saturate([[1, 2]]), 2)
        assert intersect(A, B).dim == 1


class TestSparse:
    def test_matches_dense_rank(self):
        M = [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 4, 0]]
        cols = []
        for j in range(3):
            cols.append({i: M[i][j] for i in range(4) if M[i][j]})
        for field in (QQ, GF(2), GF(3)):
            assert sparse_rank(field, cols) == rank(field, M)

    def test_empty(self):
        assert sparse_rank(QQ, []) == 0
        assert sparse_rank(GF(2), [{}, {}]) == 0


class TestMatMul:
    def test_reduces_mod_p(self):
        A = imat([[1, 1]])
        B = imat([[1], [1]])
        assert mat_mul(GF(2), A, B) == ((0,),)
        assert mat_mul(QQ, A, B) == ((2,),)

    def test_empty_dimensions(self):
        B = imat([[1, 0], [0, 1]])
        assert mat_mul(QQ, (), B) == ()
