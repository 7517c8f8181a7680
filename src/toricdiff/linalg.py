"""Exact linear algebra over the integers, the rationals, and prime fields.

Matrices are tuples of row tuples holding Python ints or
``fractions.Fraction`` entries, so arithmetic never overflows and never
rounds.  Lattices are kept in Hermite normal form and subspaces in reduced
row echelon form; both normal forms are unique for a given row space, which
makes equality a plain comparison of entries.

Zero-row and zero-column matrices are legal everywhere.  A matrix with no
rows is ``()`` and carries no width, so functions that need one take it as
``ncols``.  Ranks over QQ are computed fraction-free (Bareiss); over GF(p)
by the same reduced row echelon form that spans subspaces.

A field is a value with ``characteristic``, ``zero``, ``one``, ``of`` and
``inv``: ``QQ``, or ``GF(p)``, where ``GF`` is the prime-field class
itself.  Fields compare and hash by value.  Arithmetic on field elements
is written with Python operators, and each result is reduced once by
``field.of``.  Both fields read any other real value at its exact rational
value (:func:`_exact`): a float is not truncated, and a numpy int becomes a
Python int, whose arithmetic cannot wrap around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational

__all__ = [
    "imat",
    "identity_matrix",
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
    "lattice_subspace",
    "mat_mul",
    "sparse_rank",
]


# ---------------------------------------------------------------------------
# integer matrices


def imat(rows, ncols=None):
    """Integer matrix, a tuple of row tuples, from an iterable of rows.

    ``ncols`` fixes the width of a matrix with no rows, which is otherwise
    ambiguous.  Entries are read by :func:`_integer`.
    """
    M = tuple(_int_vector(row, "matrix") for row in rows)
    if not M:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        return M
    width = _width(M)
    if ncols is not None and width != ncols:
        raise ValueError(f"expected {ncols} columns, got {width}")
    return M


def _width(rows, empty=None):
    """The common length of a list of rows, ``empty`` when it has none; ragged
    rows raise ValueError."""
    if not rows:
        return empty
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows have unequal lengths")
    return width


def _integer(x, rule):
    """x as an int: the one integer test of library input.  Any x but a bool with
    ``int(x) == x`` passes (numpy ints, ``Fraction(2)``, ``2.0``); else ValueError(rule)."""
    if type(x) is int:
        return x
    try:
        if not isinstance(x, bool) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise ValueError(f"{rule}, got {x!r}")


def _int_vector(v, what):
    rule = f"{what} entries must be integers"
    return tuple(_integer(x, rule) for x in v)


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _transpose(M, width):
    """Columns of M as rows; ``width`` is the column count when M has no rows."""
    return tuple(zip(*M)) if M else ((),) * width


def _exact(x):
    """x at its exact value: an int or a ``Fraction`` as it is, else a ``Fraction``
    with Python-int parts (``Fraction(numpy.int64(n))`` would keep a numpy numerator,
    and ``Fraction`` refuses a ``numpy.float32``).  A value that is not a real
    number, such as the string ``"1/2"``, raises ValueError."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    ratio = getattr(x, "as_integer_ratio", None)
    if ratio is None:
        raise ValueError(f"field elements must be real numbers, got {x!r}")
    return Fraction(*map(int, ratio()))


def _primitive(row):
    """The primitive integer vector on the line of a vector of exact reals.

    The scale factor is positive, so signs are kept; the zero vector stays
    zero.  An all-int row skips the ``Fraction`` round trip.
    """
    if not all(isinstance(x, int) for x in row):
        fracs = [_exact(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs))
        row = [f.numerator * (mult // f.denominator) for f in fracs]
    g = gcd(*row) or 1
    return tuple(x // g for x in row)


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(A, ncols=None):
    """Row-style Hermite normal form together with its unimodular transform.

    Returns ``(H, U)`` with ``H = U A`` and ``|det U| = 1``.  Pivots are
    positive, entries above a pivot are reduced into ``[0, pivot)``, zero
    rows sit at the bottom.  ``H`` is unique for the row space of ``A``.

    >>> hnf([[2, 4]])[0]
    ((2, 4),)
    >>> hnf([[2, 0], [0, 2], [1, 1]])[0]
    ((1, 1), (0, 2), (0, 0))
    """
    A = imat(A, ncols)
    m = len(A)
    H = [list(r) for r in A]
    U = [list(r) for r in identity_matrix(m)]

    def subtract(i, q, k):
        H[i] = [x - q * y for x, y in zip(H[i], H[k])]
        U[i] = [x - q * y for x, y in zip(U[i], U[k])]

    row = 0
    for col in range(len(A[0]) if A else 0):
        live = [i for i in range(row, m) if H[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(H[i][col]))
            i0 = live[0]
            for i in live[1:]:
                q = H[i][col] // H[i0][col]
                if q:
                    subtract(i, q, i0)
            live = [i for i in live if H[i][col] != 0]
        i0 = live[0]
        H[row], H[i0] = H[i0], H[row]
        U[row], U[i0] = U[i0], U[row]
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
            U[row] = [-x for x in U[row]]
        for i in range(row):
            q = H[i][col] // H[row][col]
            if q:
                subtract(i, q, row)
        row += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def left_kernel(A, ncols=None):
    """Basis, in Hermite normal form, of ``{x : x A = 0}`` over the integers.

    The result is a saturated lattice: it contains every integer vector of
    its rational span.
    """
    H, U = hnf(A, ncols)
    zero = [U[i] for i, row in enumerate(H) if not any(row)]
    return hnf(zero, ncols=len(U))[0] if zero else ()


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
    n = len(A[0]) if A else ambient_rank
    orth = left_kernel(_transpose(A, n), len(A))
    return SaturatedLattice(n, left_kernel(_transpose(orth, n), len(orth)))


# ---------------------------------------------------------------------------
# coefficient fields


# The first 13 primes.  The smallest composite that is a strong probable
# prime to all of them is 3317044064679887385961981 (Sorenson and Webster,
# 2017), so the strong tests of ``is_prime`` are exact below it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(p):
    """Exact primality test for ``p < 3.3 * 10**24``; larger p is refused.

    Strong probable-prime tests to the first 13 prime bases take 13 modular
    powers, not the sqrt(p)/2 divisions of trial division, so ``GF(p)`` is
    cheap to build for every modulus it accepts and needs no cache.
    """
    if p >= _PRIME_TEST_BOUND:
        raise ValueError("primality is decided only below 3317044064679887385961981")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field QQ; elements are ``fractions.Fraction``."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return x if type(x) is Fraction else Fraction(_exact(x))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / self.of(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class GF:
    """The field GF(p) for a prime p; elements are ints in ``[0, p)``."""

    def __init__(self, p):
        p = _integer(p, "the modulus must be an integer")
        if p >= 2**31:
            raise ValueError("modulus too large, primes below 2**31 only")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if type(x) is int:
            return x % self.p
        x = _exact(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by the modulus")
        return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


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
        rows[r] = [field.of(inv * x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != field.zero:
                f = rows[i][col]
                rows[i] = [field.of(x - f * y) for x, y in zip(rows[i], rows[r])]
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
        zero = self.field.zero
        return tuple(next(j for j, x in enumerate(row) if x != zero) for row in self.basis)

    def coordinates_of(self, vec):
        """Coefficients of ``vec`` in the reduced basis, or None if outside."""
        field = self.field
        v = [field.of(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        coords = tuple(v[p] for p in self.pivots)
        for j in range(self.ambient_dim):
            if field.of(v[j] - sum(c * row[j] for c, row in zip(coords, self.basis))) != field.zero:
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
    width = _width(rows)
    if ambient_dim is not None and width != ambient_dim:
        raise ValueError(f"expected vectors of length {ambient_dim}, got {width}")
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


def rank(field, M):
    """Rank of a matrix over ``field``: fraction-free over QQ, the row count
    of the reduced row echelon form over GF(p)."""
    rows = list(M)
    _width(rows)
    if field.characteristic:
        return len(_rref(field, _field_rows(field, rows))[0])
    return _rank_bareiss([_primitive(r) for r in rows])


def kernel(field, M, ncols=None):
    """Right kernel ``{x : M x = 0}`` as a canonical subspace.

    >>> kernel(QQ, [[1, 1], [2, 2]]).basis
    ((Fraction(1, 1), Fraction(-1, 1)),)
    """
    rows = [list(r) for r in M]
    width = _width(rows, ncols)
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
            v[pc] = -reduced[i][j]
        gens.append(v)
    return subspace(field, gens, width)  # reduces each entry through field.of


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
    stacked = S.basis + T.basis
    relations = kernel(field, _transpose(stacked, n), ncols=len(stacked))
    gens = [
        [sum(c * row[j] for c, row in zip(rel[: S.dim], S.basis)) for j in range(n)]
        for rel in relations.basis
    ]
    return subspace(field, gens, n)  # reduces each entry through field.of


def sum_spaces(S, T):
    if S.field != T.field or S.ambient_dim != T.ambient_dim:
        raise ValueError("subspaces live in different spaces")
    return subspace(S.field, list(S.basis) + list(T.basis), S.ambient_dim)


def lattice_subspace(L, field):
    """The span of a saturated lattice over ``field``.

    Over GF(p) this is the reduction of the lattice mod p.  Saturation is
    exactly what keeps the rank from dropping there, and the equality of
    dimensions is asserted for every field; over QQ it always holds.
    """
    S = subspace(field, L.basis, L.ambient_rank)
    if S.dim != L.rank:
        raise ArithmeticError("saturated lattice dropped rank mod p")
    return S


# ---------------------------------------------------------------------------
# matrix product and sparse rank


def mat_mul(field, A, B):
    """Product of two matrices with reduction over ``field``.

    Row i of the product is the combination of the rows of ``B`` weighted
    by row i of ``A``; zero weights are skipped, which is most of them for
    wedge matrices.
    """
    width = _width(B, 0)
    if any(len(row) != len(B) for row in A):
        raise ValueError(f"shape mismatch: {len(B)} rows in B, not the width of A")
    out = []
    for row in A:
        acc = [0] * width
        for c, b in zip(row, B):
            if c:
                acc = [x + c * y for x, y in zip(acc, b)]
        out.append(tuple(map(field.of, acc)) if field.characteristic else tuple(acc))
    return tuple(out)


def sparse_rank(field, columns):
    """Rank of a sparse matrix given as an iterable of column dicts.

    Each column is ``{row_index: value}``.  Online elimination: every new
    column is reduced against the pivot columns found so far, in order, so
    the result does not depend on dict iteration order.
    """
    pivots = {}
    r = 0
    for col in columns:
        row = {k: x for k, v in col.items() if (x := field.of(v)) != field.zero}
        while row:
            c = min(row)
            if c in pivots:
                piv = pivots[c]
                f = row[c]
                for j, v in piv.items():
                    nv = field.of(row.get(j, field.zero) - f * v)
                    if nv == field.zero:
                        row.pop(j, None)
                    else:
                        row[j] = nv
            else:
                inv = field.inv(row[c])
                pivots[c] = {j: field.of(inv * v) for j, v in row.items()}
                r += 1
                break
    return r
