"""Exact linear algebra over the integers, the rationals, and prime fields.

Matrices are numpy arrays with ``dtype=object`` holding Python ints or
``fractions.Fraction`` entries, so arithmetic never overflows and never
rounds.  Lattices are kept in Hermite normal form and subspaces in reduced
row echelon form; both normal forms are unique for a given row space, which
makes equality a plain comparison of entries.

Zero-row and zero-column matrices are legal everywhere.  Ranks over QQ are
computed fraction-free (Bareiss); ranks over GF(p) by ordinary elimination
on residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, cached_property
from math import lcm

import numpy as np

__all__ = [
    "imat",
    "identity_matrix",
    "zero_matrix",
    "hnf",
    "left_kernel",
    "SaturatedLattice",
    "saturate",
    "is_prime",
    "QQ",
    "GF",
    "field_of_characteristic",
    "Subspace",
    "subspace",
    "full_space",
    "zero_space",
    "rank",
    "kernel",
    "intersect",
    "sum_spaces",
    "reduce_mod_p",
    "lattice_subspace",
    "mat_mul",
    "sparse_rank",
]


# ---------------------------------------------------------------------------
# integer matrices


def imat(rows, ncols=None):
    """Integer matrix with ``dtype=object`` from an iterable of rows.

    ``ncols`` fixes the width of a matrix with no rows, which is otherwise
    ambiguous.  Entries must be integers (bools are rejected).
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("expected a two dimensional array")
        if ncols is not None and rows.shape[1] != ncols:
            raise ValueError(f"expected {ncols} columns, got {rows.shape[1]}")
        return rows.astype(object)
    data = []
    for row in rows:
        data.append([_as_int(x) for x in row])
    if not data:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        return np.zeros((0, ncols), dtype=object)
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("rows have unequal lengths")
    if ncols is not None and width != ncols:
        raise ValueError(f"expected {ncols} columns, got {width}")
    M = np.empty((len(data), width), dtype=object)
    for i, r in enumerate(data):
        for j, x in enumerate(r):
            M[i, j] = x
    return M


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"not an integer entry: {x!r}")
    return int(x)


def identity_matrix(n):
    M = np.zeros((n, n), dtype=object)
    for i in range(n):
        M[i, i] = 1
    return M


def zero_matrix(nrows, ncols):
    return np.zeros((nrows, ncols), dtype=object)


def _int_rows(M):
    return tuple(tuple(int(x) for x in row) for row in M)


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(A, ncols=None):
    """Row-style Hermite normal form together with its unimodular transform.

    Returns ``(H, U)`` with ``H = U A`` and ``|det U| = 1``.  Pivots are
    positive, entries above a pivot are reduced into ``[0, pivot)``, zero
    rows sit at the bottom.  ``H`` is unique for the row space of ``A``.

    >>> H, U = hnf([[2, 4]])
    >>> H.tolist()
    [[2, 4]]
    >>> H, U = hnf([[2, 0], [0, 2], [1, 1]])
    >>> H.tolist()
    [[1, 1], [0, 2], [0, 0]]
    """
    A = imat(A, ncols)
    m, n = A.shape
    H = A.copy()
    U = identity_matrix(m)
    row = 0
    for col in range(n):
        live = [i for i in range(row, m) if H[i, col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(H[i, col]))
            i0 = live[0]
            for i in live[1:]:
                q = H[i, col] // H[i0, col]
                if q:
                    H[i, :] -= q * H[i0, :]
                    U[i, :] -= q * U[i0, :]
            live = [i for i in live if H[i, col] != 0]
        i0 = live[0]
        if i0 != row:
            H[[row, i0]] = H[[i0, row]]
            U[[row, i0]] = U[[i0, row]]
        if H[row, col] < 0:
            H[row, :] = -H[row, :]
            U[row, :] = -U[row, :]
        for i in range(row):
            q = H[i, col] // H[row, col]
            if q:
                H[i, :] -= q * H[row, :]
                U[i, :] -= q * U[row, :]
        row += 1
    return H, U


def left_kernel(A, ncols=None):
    """Basis, in Hermite normal form, of ``{x : x A = 0}`` over the integers.

    The result is a saturated lattice: it contains every integer vector of
    its rational span.
    """
    A = imat(A, ncols)
    m = A.shape[0]
    H, U = hnf(A)
    zero = [i for i in range(m) if all(x == 0 for x in H[i, :])]
    if not zero:
        return np.zeros((0, m), dtype=object)
    K, _ = hnf(U[zero, :], ncols=m)
    return K


@dataclass(frozen=True)
class SaturatedLattice:
    """Saturated sublattice of ZZ^n, basis rows in Hermite normal form."""

    ambient_rank: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)

    def __repr__(self):
        return f"SaturatedLattice(ambient_rank={self.ambient_rank}, basis={list(map(list, self.basis))})"


def saturate(rows, ambient_rank=None):
    """Smallest saturated sublattice of ZZ^n containing the given rows.

    Computed as a double integer orthogonal complement, which adds every
    integer vector of the rational span.  Identity on already saturated
    input.

    >>> saturate([[2, 4]]).basis
    ((1, 2),)
    >>> saturate([], ambient_rank=3).basis
    ()
    """
    A = imat(rows, ambient_rank)
    orth = left_kernel(A.T)
    sat = left_kernel(orth.T)
    return SaturatedLattice(A.shape[1], _int_rows(sat))


# ---------------------------------------------------------------------------
# coefficient fields


def is_prime(p):
    """Trial division primality test, meant for small moduli."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field QQ; elements are ``fractions.Fraction``."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class PrimeField:
    """The field GF(p) for a prime p; elements are ints in ``[0, p)``."""

    def __init__(self, p):
        p = int(p)
        if p >= 2**31:
            raise ValueError("modulus too large, primes below 2**31 only")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by the modulus")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


def field_of_characteristic(char):
    return QQ if char == 0 else GF(char)


# ---------------------------------------------------------------------------
# row echelon computations over a field


def _field_rows(field, rows):
    return [[field.of(x) for x in row] for row in rows]


def _rref(field, rows):
    """Reduced row echelon form of a list of field-element rows.

    Returns ``(rows, pivots)`` where ``rows`` holds only the nonzero rows.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != field.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != field.zero:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of ``K^n`` carrying its unique RREF basis.

    Uniqueness of the reduced basis turns subspace equality into tuple
    equality, so ``==`` is a genuine subspace comparison.
    """

    field: object
    ambient_dim: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def pivots(self):
        out = []
        for row in self.basis:
            out.append(next(j for j, x in enumerate(row) if x != self.field.zero))
        return tuple(out)

    def coordinates_of(self, vec):
        """Coefficients of ``vec`` in the reduced basis, or None if outside."""
        v = [self.field.of(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        coords = tuple(v[p] for p in self.pivots)
        for j in range(self.ambient_dim):
            s = v[j]
            for c, row in zip(coords, self.basis):
                s = self.field.sub(s, self.field.mul(c, row[j]))
            if s != self.field.zero:
                return None
        return coords

    def contains(self, vec):
        return self.coordinates_of(vec) is not None

    def is_subspace_of(self, other):
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces live in different spaces")
        return all(other.contains(row) for row in self.basis)

    def __repr__(self):
        return f"Subspace({self.field!r}, dim {self.dim} of {self.ambient_dim})"


def subspace(field, rows, ambient_dim=None):
    """Span of the given rows as a canonical :class:`Subspace`."""
    rows = list(rows)
    if not rows:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty generating set")
        return Subspace(field, ambient_dim, ())
    width = len(rows[0])
    if ambient_dim is not None and width != ambient_dim:
        raise ValueError(f"expected vectors of length {ambient_dim}, got {width}")
    if any(len(r) != width for r in rows):
        raise ValueError("rows have unequal lengths")
    reduced, _ = _rref(field, _field_rows(field, rows))
    return Subspace(field, width, tuple(tuple(r) for r in reduced))


def full_space(field, n):
    return Subspace(field, n, tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)))


def zero_space(field, n):
    return Subspace(field, n, ())


# ---------------------------------------------------------------------------
# rank


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


def _rank_bareiss(rows):
    """Rank of integer rows by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        for i in range(r + 1, m):
            f = rows[i][col]
            ri = rows[i]
            top = rows[r]
            for j in range(col + 1, n):
                ri[j] = _exact_div(p * ri[j] - f * top[j], prev)
            ri[col] = 0
        prev = p
        r += 1
    return r


def _clear_denominators(row):
    if all(isinstance(x, int) for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * mult) for f in fracs]


def _rank_modp(rows, p):
    rows = [[int(x) % p for x in r] for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        for i in range(r + 1, m):
            f = rows[i][col] * inv % p
            if f:
                ri = rows[i]
                top = rows[r]
                for j in range(col, n):
                    ri[j] = (ri[j] - f * top[j]) % p
        r += 1
    return r


def rank(field, M):
    """Rank of a matrix over ``field``; fraction-free over QQ."""
    rows = [list(r) for r in M]
    if not rows or not rows[0]:
        return 0
    if field.characteristic == 0:
        return _rank_bareiss([_clear_denominators(r) for r in rows])
    return _rank_modp(rows, field.characteristic)


def kernel(field, M, ncols=None):
    """Right kernel ``{x : M x = 0}`` as a canonical subspace.

    >>> kernel(QQ, [[1, 1], [2, 2]]).basis
    ((Fraction(1, 1), Fraction(-1, 1)),)
    """
    rows = [list(r) for r in M]
    width = M.shape[1] if isinstance(M, np.ndarray) else (len(rows[0]) if rows else ncols)
    if width is None:
        raise ValueError("ncols is required for a matrix with no rows")
    if not rows:
        return full_space(field, width)
    reduced, pivots = _rref(field, _field_rows(field, rows))
    free = [j for j in range(width) if j not in pivots]
    gens = []
    for j in free:
        v = [field.zero] * width
        v[j] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[i][j])
        gens.append(v)
    return subspace(field, gens, width)


def intersect(S, T):
    """Intersection of two subspaces of the same ``K^n``.

    Found through the kernel of the stacked basis matrix: a combination of
    rows of ``S`` equal to a combination of rows of ``T`` is exactly a
    point of the intersection.
    """
    if S.field != T.field or S.ambient_dim != T.ambient_dim:
        raise ValueError("subspaces live in different spaces")
    field, n = S.field, S.ambient_dim
    if S.dim == 0 or T.dim == 0:
        return zero_space(field, n)
    if S.dim == n:
        return T
    if T.dim == n:
        return S
    stacked = [list(r) for r in S.basis] + [list(r) for r in T.basis]
    transposed = [[stacked[i][j] for i in range(len(stacked))] for j in range(n)]
    relations = kernel(field, transposed, ncols=len(stacked))
    gens = []
    for rel in relations.basis:
        v = [field.zero] * n
        for c, row in zip(rel[: S.dim], S.basis):
            for j in range(n):
                v[j] = field.add(v[j], field.mul(c, row[j]))
        gens.append(v)
    return subspace(field, gens, n)


def sum_spaces(S, T):
    if S.field != T.field or S.ambient_dim != T.ambient_dim:
        raise ValueError("subspaces live in different spaces")
    return subspace(S.field, list(S.basis) + list(T.basis), S.ambient_dim)


def reduce_mod_p(L, p):
    """Reduction of a saturated lattice to a subspace of GF(p)^n.

    Saturation is exactly what keeps the rank from dropping mod p, and the
    equality of dimensions is asserted here.
    """
    field = GF(p)
    S = subspace(field, L.basis, L.ambient_rank)
    if S.dim != L.rank:
        raise ArithmeticError("saturated lattice dropped rank mod p")
    return S


def lattice_subspace(L, field):
    """The span of a saturated lattice over ``field``."""
    if field.characteristic == 0:
        return subspace(field, L.basis, L.ambient_rank)
    return reduce_mod_p(L, field.characteristic)


# ---------------------------------------------------------------------------
# matrix product and sparse rank


def mat_mul(field, A, B):
    """Product of two object-dtype matrices with reduction over ``field``."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch: {A.shape} by {B.shape}")
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return zero_matrix(A.shape[0], B.shape[1])
    C = A @ B
    if field.characteristic:
        C = C % field.characteristic
    return C


def sparse_rank(field, columns):
    """Rank of a sparse matrix given as an iterable of column dicts.

    Each column is ``{row_index: value}``.  Online elimination: every new
    column is reduced against the pivot columns found so far, in order, so
    the result does not depend on dict iteration order.
    """
    pivots = {}
    r = 0
    for col in columns:
        row = {k: field.of(v) for k, v in col.items() if field.of(v) != field.zero}
        while row:
            c = min(row)
            if c in pivots:
                piv = pivots[c]
                f = row[c]
                for j, v in piv.items():
                    nv = field.sub(row.get(j, field.zero), field.mul(f, v))
                    if nv == field.zero:
                        row.pop(j, None)
                    else:
                        row[j] = nv
            else:
                inv = field.inv(row[c])
                pivots[c] = {j: field.mul(inv, v) for j, v in row.items()}
                r += 1
                break
    return r
