from fractions import Fraction

import numpy
import pytest

from tests.conftest import INTEGER_INPUTS, check_integer_input
from toricdiff.linalg import (
    GF,
    QQ,
    Subspace,
    field_of_characteristic,
    full_space,
    hnf,
    identity_matrix,
    imat,
    intersect,
    is_prime,
    kernel,
    lattice_subspace,
    left_kernel,
    mat_mul,
    rank,
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

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: imat([[x, 4]]),
            lambda x: hnf([[x, 4]]),
            lambda x: left_kernel([[x, 4], [1, 2]]),
            lambda x: saturate([[x, 4]]),
        ],
        ids=["imat", "hnf", "left_kernel", "saturate"],
    )
    def test_entries_follow_the_integer_rule(self, call, x, accepted):
        check_integer_input(call, x, accepted)


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
        S = lattice_subspace(L, GF(2))
        assert S.dim == 1
        assert S.basis == ((1, 0),)
        naive = subspace(GF(2), [[2, 4]], 2)
        assert naive.dim == 0

    def test_dimension_preserved(self):
        L = saturate([[1, 2, 3], [0, 1, 7]])
        for p in (2, 3, 5, 7):
            assert lattice_subspace(L, GF(p)).dim == L.rank


WIDE = numpy.array([[2**32 + 1, 2**33 + 1], [1, 2**32 + 1]], dtype=numpy.int64)


class TestFields:
    def test_rationals(self):
        assert QQ.of(2) == Fraction(2)
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        assert QQ.inv(-2) == Fraction(-1, 2)
        assert QQ.characteristic == 0

    @pytest.mark.parametrize(
        "x", [3, -3, True, numpy.int64(-3)], ids=["int", "negative", "bool", "int64"]
    )
    def test_rationals_read_every_integer_type(self, x):
        assert type(QQ.of(x)) is Fraction and QQ.of(x) == int(x)

    def test_rationals_keep_a_fraction(self):
        x = Fraction(-5, 3)
        assert QQ.of(x) is x

    def test_prime_field(self):
        F = GF(7)
        assert F.of(-1) == 6
        assert F.inv(3) == 5
        assert F.of(Fraction(1, 2)) == 4

    @pytest.mark.parametrize(
        "x, residue",
        [(12, 5), (-1, 6), (True, 1), (numpy.int64(-8), 6), (Fraction(1, 2), 4), (Fraction(-3, 4), 1), (0.5, 4)],
        ids=["int", "negative", "bool", "int64", "fraction", "negative-fraction", "float"],
    )
    def test_prime_field_reads_every_input_type(self, x, residue):
        assert type(GF(7).of(x)) is int and GF(7).of(x) == residue

    # a float is not truncated (0.5 is the inverse of 2 in GF(7)), and numpy
    # ints become Python ints: with int64 entries det(WIDE) = a^2 - b wraps
    @pytest.mark.parametrize(
        "call, value",
        [
            (lambda: rank(GF(7), [[0.5]]), 1),
            (lambda: rank(QQ, WIDE), 2),
            (lambda: subspace(QQ, WIDE).dim, 2),
            (lambda: QQ.of(numpy.int64(2**62)) * 4, 2**64),
        ],
        ids=["float-rank-mod-7", "int64-rank", "int64-subspace", "int64-product"],
    )
    def test_fields_read_values_exactly(self, call, value):
        assert call() == value

    def test_prime_field_refuses_a_denominator_divisible_by_p(self):
        with pytest.raises(ZeroDivisionError):
            GF(7).of(Fraction(1, 14))

    def test_rejects_composite_and_huge(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(2**31 + 11)
        with pytest.raises(ZeroDivisionError):
            GF(5).inv(0)

    @pytest.mark.parametrize(
        "p", [2.5, Fraction(7, 2), 3.9], ids=["float", "fraction", "just-below-a-prime"]
    )
    def test_rejects_a_non_integral_modulus(self, p):
        # not truncated to GF(2) or GF(3); integral values of any type still pass
        with pytest.raises(ValueError, match="must be an integer"):
            GF(p)
        with pytest.raises(ValueError, match="must be an integer"):
            field_of_characteristic(p)
        assert GF(Fraction(3)) == GF(3.0) == GF(numpy.int64(3)) == GF(3)

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize("call", [GF, field_of_characteristic], ids=["GF", "field_of_char"])
    def test_moduli_follow_the_integer_rule(self, call, x, accepted):
        check_integer_input(call, x, accepted)

    def test_fields_compare_and_hash_by_value(self):
        # GF(5) builds a new field on every call: equality and hashing go by the modulus
        assert GF(5) == GF(5) and hash(GF(5)) == hash(GF(5))
        assert GF(5) != GF(7) and GF(5) != QQ and QQ != GF(5)
        rows = [[1, 2, 3], [4, 5, 6]]
        assert subspace(GF(5), rows) == subspace(GF(5), rows)

    def test_is_prime_small(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(is_prime(n) == trial(n) for n in range(-3, 20000))

    def test_is_prime_on_strong_pseudoprimes_and_large_primes(self):
        # each composite passes the strong test to every base before the one that catches it
        pseudoprimes = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
        pseudoprimes += [341550071728321, 3825123056546413051, 318665857834031151167461]
        assert not any(is_prime(n) for n in pseudoprimes)
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and is_prime(2**31 - 19)
        with pytest.raises(ValueError):
            is_prime(1287836182261 * 2575672364521)  # a strong pseudoprime to all 13 bases


class TestRank:
    def test_char_zero_fraction_free(self):
        assert rank(QQ, [[1, 2], [2, 4]]) == 1
        assert rank(QQ, [[1, 2], [3, 4]]) == 2
        assert rank(QQ, [[Fraction(1, 2), 1], [1, 2]]) == 1

    def test_mod_p(self):
        assert rank(GF(2), [[2, 4], [1, 1]]) == 1
        assert rank(GF(3), [[2, 4], [1, 1]]) == 2
        # Fraction entries are reduced like subspace and sparse_rank reduce
        # them: 1/2 is the unit 2 mod 3, and 1/3 has no residue mod 3
        assert rank(GF(3), [[Fraction(1, 2)]]) == 1
        with pytest.raises(ZeroDivisionError):
            rank(GF(3), [[Fraction(1, 3)]])

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

    def test_unreduced_input_gives_residues(self):
        p = 5
        rows = [[7, -3, 12], [-8, 14, 1]]
        S = subspace(GF(p), rows)
        K = kernel(GF(p), rows)
        coords = S.coordinates_of([x + 10 * y for x, y in zip(rows[0], rows[1])])
        meet = intersect(S, subspace(GF(p), [[-4, 9, 26], [10, 0, 3]]))
        entries = [x for B in (S.basis, K.basis, meet.basis) for row in B for x in row]
        assert coords is not None and meet.dim == 1
        assert all(type(x) is int and 0 <= x < p for x in entries + list(coords))

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
        A = lattice_subspace(saturate([[1, 0]]), GF(2))
        B = lattice_subspace(saturate([[1, 2]]), GF(2))
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

    def test_fraction_entries_reduce_through_the_field(self):
        # 1/2 is 2 in GF(3), as GF(3).of reads it; x % 3 would keep Fraction(1, 2)
        assert mat_mul(GF(3), ((Fraction(1, 2),),), ((1,),)) == ((2,),)

    def test_empty_dimensions(self):
        B = imat([[1, 0], [0, 1]])
        assert mat_mul(QQ, (), B) == ()
