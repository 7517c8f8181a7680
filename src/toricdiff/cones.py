"""Rational polyhedral cones: duality, extreme rays, faces, lattice points.

A cone is stored by a canonical generating set: the extreme rays of its
pointed part, plus a plus/minus pair for every basis vector of its lineality
space.  Canonicalization happens in the constructor (generators are passed
through the dual cone and back), so two descriptions of the same point set
build equal objects.

Convention used by the rest of the package: the lattice of monomial
exponents sits on the dual side.  Starting from generators in the covector
lattice, ``Cone(rays).dual`` is the cone whose lattice points index the
monomials of the coordinate ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .linalg import (
    QQ,
    SaturatedLattice,
    imat,
    left_kernel,
    rank,
    saturate,
)

__all__ = [
    "Cone",
    "Facet",
    "NotPointedError",
    "NotInConeError",
]


class NotPointedError(ValueError):
    """Raised when an operation needs a pointed cone (or a full dimensional dual)."""


class NotInConeError(ValueError):
    """Raised when a lattice point lies outside the cone at hand."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(vec):
    """Divide an integer vector by the gcd of its entries; zero is rejected."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


@dataclass(frozen=True)
class Facet:
    """Codimension-one face of a cone, tagged by its supporting normal.

    ``normal`` is an extreme ray of the dual cone; the face consists of the
    cone points orthogonal to it.  ``span`` is the saturated lattice spanned
    by the face, so reduction of ``span`` mod p keeps its rank.
    """

    index: int
    normal: tuple
    span: SaturatedLattice


class Cone:
    """Rational polyhedral cone ``{sum c_i r_i : c_i >= 0}`` in ZZ^n.

    >>> c = Cone([(0, 1), (2, -1)])
    >>> c.dual.rays
    ((1, 0), (1, 2))
    >>> c.dual.dual is c
    True
    """

    def __init__(self, rays=(), ambient_rank=None, _parts=None):
        if _parts is not None:
            lineality, pointed, n = _parts
        else:
            gens, n = _sanitize(rays, ambient_rank)
            dual_lin, dual_pointed = _double_description(gens, n)
            dual_gens = _generator_list(dual_lin, dual_pointed)
            lineality, pointed = _double_description(dual_gens, n)
            dual = Cone(_parts=(dual_lin, dual_pointed, n))
            self.__dict__["dual"] = dual
            dual.__dict__["dual"] = self
        self.ambient_rank = n
        self._lineality = lineality
        self._pointed = pointed
        self.rays = _generator_list(lineality, pointed)

    @property
    def dual(self):
        """The dual cone ``{u : <u, v> >= 0 for all v here}``."""
        d = self.__dict__.get("dual")
        if d is None:
            lin, pointed = _double_description(self.rays, self.ambient_rank)
            d = Cone(_parts=(lin, pointed, self.ambient_rank))
            self.__dict__["dual"] = d
            d.__dict__["dual"] = self
        return d

    def contains(self, point):
        """Membership test against the inequality description (the dual rays)."""
        return self._point_mask(self._point(point)) is not None

    def has_vertex(self):
        """True when the cone contains no line, i.e. its lineality space is 0."""
        return not self._lineality

    def is_full_dimensional(self):
        return not self.dual._lineality

    @property
    def facets(self):
        """Codimension-one faces, one per extreme ray of the dual cone.

        Only defined for a full dimensional cone; otherwise the dual is not
        pointed and its rays do not pick out the faces.
        """
        got = self.__dict__.get("_facets")
        if got is not None:
            return got
        if not self.is_full_dimensional():
            raise NotPointedError(
                "cone is not full dimensional (its dual contains a line), "
                "so codimension-one faces are not indexed by dual rays"
            )
        out = []
        for idx, normal in enumerate(self.dual.rays):
            on_face = [u for u in self.rays if _dot(u, normal) == 0]
            span = saturate(on_face, self.ambient_rank)
            if span.rank != self.ambient_rank - 1:
                raise AssertionError("facet span has unexpected rank")
            out.append(Facet(idx, normal, span))
        got = tuple(out)
        self.__dict__["_facets"] = got
        return got

    def facets_containing(self, point):
        """Facets through a lattice point of the cone; interior points give ()."""
        v = self._point(point)
        mask = self._point_mask(v)
        if mask is None:
            raise NotInConeError(f"{v} is not a lattice point of the cone")
        return tuple(f for f in self.facets if mask >> f.index & 1)

    def lattice_points(self, bound):
        """All cone points in the box ``[-bound, bound]^n``, lexicographic.

        One vectorised pass over the box: it is cut into slabs along the
        first coordinate, and each slab of ``(2*bound+1)^(n-1)`` points goes
        through :meth:`_classify` (``points @ normals.T``), so the whole
        grid is never held at once.  Slabs in increasing first coordinate,
        each in lexicographic order, give the lexicographic order of the
        box.  The same pass records the facet bitmask of every point found
        (see :meth:`facet_masks`).  Arithmetic is exact: ``int64`` while
        ``max_u sum|u_i| * bound`` stays below ``2**62``, Python integers
        (``dtype=object``) otherwise.

        The origin is always included.  Results are cached per bound.
        """
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        cache = self.__dict__.setdefault("_scans", {})
        got = cache.get(bound)
        if got is None:
            got = self._scan(bound)
            cache[bound] = got
        return got[0]

    def facet_masks(self, bound):
        """Facet bitmasks of ``lattice_points(bound)``, in the same order.

        Bit i of a mask is set when the point is orthogonal to the i-th
        dual ray, so for a full dimensional cone the set bits are the
        indices of :meth:`facets_containing`.
        """
        self.lattice_points(bound)
        return self.__dict__["_scans"][bound][1]

    def classify(self, points):
        """Facet bitmask of each given lattice point, as in :meth:`facet_masks`.

        Raises :class:`NotInConeError` when a point lies outside the cone.
        """
        rows = [self._point(v) for v in points]
        if not rows:
            return ()
        top = max(abs(x) for v in rows for x in v)
        inside, masks = self._classify(np.array(rows, dtype=object), top)
        if not inside.all():
            outside = rows[int(np.argmin(inside))]
            raise NotInConeError(f"{outside} is not a lattice point of the cone")
        return tuple(masks)

    def _point(self, point):
        v = tuple(int(x) for x in point)
        if len(v) != self.ambient_rank:
            raise ValueError("point length does not match the ambient rank")
        return v

    def _point_mask(self, v):
        """Facet bitmask of one point, or None when it lies outside the cone."""
        inside, masks = self._classify(np.array([v], dtype=object), max(map(abs, v)))
        return masks[0] if inside[0] else None

    def _scan(self, bound):
        n = self.ambient_rank
        coords = range(-bound, bound + 1)
        rest = list(itertools.product(coords, repeat=n - 1))
        slab = np.empty((len(rest), n), dtype=np.int64)
        slab[:, 1:] = np.array(rest, dtype=np.int64).reshape(len(rest), n - 1)
        points = []
        masks = []
        for first in coords:
            slab[:, 0] = first
            inside, got = self._classify(slab, bound)
            points.extend((first,) + rest[j] for j in np.flatnonzero(inside).tolist())
            masks.extend(got)
        return tuple(points), tuple(masks)

    def _classify(self, points, top):
        """The classification kernel: membership and facet bitmasks of rows.

        ``points`` is an integer array with entries bounded by ``top`` in
        absolute value.  Returns a boolean array (row inside the cone) and
        the bitmasks of the rows inside, as Python ints.
        """
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            exact = np.array(self.dual.rays, dtype=object).reshape(-1, self.ambient_rank)
            width = max((sum(map(abs, u)) for u in self.dual.rays), default=0)
            k = exact.shape[0]
            weights = np.array([1 << i for i in range(k)], dtype=np.int64 if k < 63 else object)
            kernel = (exact, exact.astype(np.int64) if width < 2**62 else None, width, weights)
            self.__dict__["_kernel"] = kernel
        exact, fast, width, weights = kernel
        if max(width, 1) * max(top, 1) < 2**62:
            vals = points.astype(np.int64, copy=False) @ fast.T
        else:
            vals = points.astype(object, copy=False) @ exact.T
        inside = (vals >= 0).all(axis=1)
        masks = (vals[inside] == 0).astype(weights.dtype) @ weights
        return inside, masks.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and other.ambient_rank == self.ambient_rank
            and other.rays == self.rays
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.rays))

    def __repr__(self):
        return f"Cone(rays={list(map(list, self.rays))}, ambient_rank={self.ambient_rank})"


def _sanitize(rays, ambient_rank):
    vecs = []
    for ray in rays:
        vec = []
        for x in ray:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"ray entries must be integers, got {x!r}")
            vec.append(int(x))
        vecs.append(tuple(vec))
    if ambient_rank is None:
        if not vecs:
            raise ValueError("ambient_rank is required for a cone with no generators")
        ambient_rank = len(vecs[0])
    if any(len(v) != ambient_rank for v in vecs):
        raise ValueError("ray length does not match the ambient rank")
    out = sorted({_primitive(v) for v in vecs if any(v)})
    return tuple(out), ambient_rank


def _generator_list(lineality, pointed):
    gens = set(pointed)
    for row in lineality:
        gens.add(_primitive(row))
        gens.add(_primitive(tuple(-x for x in row)))
    return tuple(sorted(gens))


# ---------------------------------------------------------------------------
# double description


def _double_description(ineqs, n):
    """Generators of ``{x : <a, x> >= 0 for every a in ineqs}``.

    Returns ``(lineality, rays)``: a Hermite basis of the largest linear
    subspace contained in the solution cone, and the extreme rays of the
    complementary pointed part.  The pointed part is handled by the
    incremental double description method in coordinates on a complement
    of the lineality space.
    """
    A = imat(ineqs, n)
    lin = left_kernel(A.T)
    lin_rows = tuple(tuple(int(x) for x in row) for row in lin)
    r = n - len(lin_rows)
    if r == 0:
        return lin_rows, ()
    P = left_kernel(imat(lin_rows, n).T)
    Aq = A @ P.T
    quotient_rays = _pointed_double_description([tuple(row) for row in Aq], r)
    rays = sorted(_primitive(tuple(_dot(y, col) for col in P.T)) for y in quotient_rays)
    return lin_rows, tuple(rays)


def _pointed_double_description(ineq_rows, r):
    """Extreme rays of a cone ``{y : B y >= 0}`` known to be pointed.

    Pointedness means the inequality matrix has full column rank r, so an
    independent subset of r inequalities cuts out a simplicial cone whose
    rays seed the incremental insertion.  Adjacency of two rays is decided
    by the rank of the inequalities active on both.
    """
    base = _independent_rows(ineq_rows, r)
    rays = _simplicial_rays([ineq_rows[i] for i in base])
    processed = [ineq_rows[i] for i in base]
    for i, row in enumerate(ineq_rows):
        if i in base:
            continue
        vals = {v: _dot(row, v) for v in rays}
        plus = [v for v in rays if vals[v] > 0]
        zero = [v for v in rays if vals[v] == 0]
        minus = [v for v in rays if vals[v] < 0]
        if minus:
            fresh = set()
            for u in plus:
                for w in minus:
                    if _adjacent(u, w, processed, r):
                        combo = tuple(vals[u] * b - vals[w] * a for a, b in zip(u, w))
                        fresh.add(_primitive(combo))
            rays = plus + zero + sorted(fresh)
        processed.append(row)
    return sorted(set(rays))


def _independent_rows(rows, r):
    chosen = []
    for i, row in enumerate(rows):
        if rank(QQ, [rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
            if len(chosen) == r:
                return chosen
    raise AssertionError("inequality matrix does not have full column rank")


def _simplicial_rays(square_rows):
    """Rays of ``{y : B y >= 0}`` for an invertible square B: scaled inverse columns."""
    r = len(square_rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(square_rows)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    rays = []
    for j in range(r):
        column = [aug[i][r + j] for i in range(r)]
        mult = 1
        for f in column:
            mult = mult * f.denominator // gcd(mult, f.denominator)
        rays.append(_primitive(tuple(int(f * mult) for f in column)))
    return rays


def _adjacent(u, w, processed, r):
    active = [b for b in processed if _dot(b, u) == 0 and _dot(b, w) == 0]
    if not active:
        return r == 2
    return rank(QQ, active) == r - 2
