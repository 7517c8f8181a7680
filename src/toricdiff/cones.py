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

import numpy as np

from . import linalg
from .linalg import (
    QQ,
    SaturatedLattice,
    _int_vector,
    _integer,
    _transpose,
    identity_matrix,
    imat,
    left_kernel,
    saturate,
    subspace,
)

__all__ = [
    "Cone",
    "Facet",
    "NotPointedError",
    "NotInConeError",
]


# Most points a box scan may visit, and most points in one slab of it.  The
# scan streams the box a slab at a time and keeps none of it, so memory does
# not bound the box; time does.  At 10^7 points a 3-dimensional check runs for
# minutes.  The largest boxes in the tests and CI are the rank-6 orthant's
# 13^6 (4,826,809 points), scanned in slabs of 13^4 = 28,561 points; the
# benchmark's largest is 41^3.
_MAX_BOX_POINTS = 10**7
_MAX_SLAB_POINTS = 2**15


class NotPointedError(ValueError):
    """Raised when an operation needs a pointed cone (or a full dimensional dual)."""


class NotInConeError(ValueError):
    """Raised when a lattice point lies outside the cone at hand."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(vec):
    """The primitive integer vector on the line of a ray; zero is rejected.

    No ray is zero, so a zero vector here is a bug in the double description.
    """
    if not any(vec):
        raise ValueError("zero vector has no primitive representative")
    return linalg._primitive(vec)


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
        self.rays = _generator_list(lineality, pointed)

    @property
    def dual(self):
        """The dual cone ``{u : <u, v> >= 0 for all v here}``."""
        return self.__dict__["dual"]

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
        out = []
        for idx, normal in enumerate(self._normals_of(-1)):
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
        mask = self._mask_of(self._point(point))
        return tuple(f for f in self.facets if mask >> f.index & 1)

    def _mask_of(self, v):
        """Facet bitmask of a lattice point v of the cone, already read by :meth:`_point`."""
        mask = self._point_mask(v)
        if mask is None:
            raise NotInConeError(f"{v} is not a lattice point of the cone")
        return mask

    def _normals_of(self, mask):
        """Primitive normals (dual rays) of the facets set in a bitmask; -1 sets every bit."""
        dual = self.dual
        if dual._lineality:
            raise NotPointedError(
                "cone is not full dimensional (its dual contains a line), "
                "so codimension-one faces are not indexed by dual rays"
            )
        return tuple(u for i, u in enumerate(dual.rays) if mask >> i & 1) if mask else ()

    def lattice_points(self, bound):
        """Iterator of ``(point, facet mask)`` over the cone points of ``[-bound, bound]^n``.

        Points come in lexicographic order; the origin is always included.
        Bit i of a mask is set when the point is orthogonal to the i-th dual
        ray, so for a full dimensional cone the set bits are the indices of
        :meth:`facets_containing`.  The box is streamed (see :meth:`_scan`)
        and nothing of it is kept, so a caller that consumes the points one
        by one holds one slab of at most ``_MAX_SLAB_POINTS`` points at a
        time, whatever the rank and the bound.  A box of more than
        ``_MAX_BOX_POINTS`` points is refused here, before the scan starts.
        """
        bound = _integer(bound, "the bound must be an integer")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        size = (2 * bound + 1) ** self.ambient_rank
        if size > _MAX_BOX_POINTS:
            raise ValueError(
                f"the box [-{bound}, {bound}]^{self.ambient_rank} has {size} points, "
                f"more than the limit of {_MAX_BOX_POINTS}"
            )
        return self._scan(bound)

    def _point(self, point):
        v = _int_vector(point, "point")
        if len(v) != self.ambient_rank:
            raise ValueError("point length does not match the ambient rank")
        return v

    def _point_mask(self, v):
        """Facet bitmask of one point, or None when it lies outside the cone."""
        mask = 0
        for i, u in enumerate(self.dual.rays):
            value = _dot(u, v)
            if value < 0:
                return None
            if not value:
                mask |= 1 << i
        return mask

    def _scan(self, bound):
        """Generator behind :meth:`lattice_points`, the only numpy code.

        A slab fixes the n-d leading coordinates and runs over the last d,
        for the largest ``d <= n-1`` with ``(2*bound+1)^d <= _MAX_SLAB_POINTS``
        (rank 1 gets one-point slabs).  Its tail is built once from
        ``np.indices`` in lexicographic order, the prefixes step in
        lexicographic order, and each slab is classified by one product
        ``points @ normals.T``.  A slab's products are freed before its
        points are yielded.  Arithmetic is exact: ``int64`` while
        ``max_u sum|u_i| * bound`` stays below ``2**62``, Python integers
        (``dtype=object``) otherwise.  The bit weights are ``int64`` below 63
        facets and Python integers from there on.
        """
        n = self.ambient_rank
        normals = self.dual.rays
        width = max((sum(map(abs, u)) for u in normals), default=0)
        dtype = np.int64 if max(width, 1) * max(bound, 1) < 2**62 else object
        normals_t = np.array(normals, dtype=dtype).reshape(-1, n).T
        k = len(normals)
        weights = np.array([1 << i for i in range(k)], dtype=np.int64 if k < 63 else object)
        side = 2 * bound + 1
        d = n - 1
        while d and side ** d > _MAX_SLAB_POINTS:
            d -= 1
        rest = side ** d
        slab = np.empty((rest, n), dtype=dtype)
        slab[:, n - d :] = np.indices((side,) * d).reshape(d, rest).T - bound
        for prefix in itertools.product(range(-bound, bound + 1), repeat=n - d):
            slab[:, : n - d] = prefix
            vals = slab @ normals_t
            inside = (vals >= 0).all(axis=1)
            columns = slab[inside].T.tolist()
            masks = ((vals[inside] == 0).astype(weights.dtype) @ weights).tolist()
            del vals, inside
            yield from zip(zip(*columns), masks)

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
    vecs = [_int_vector(ray, "ray") for ray in rays]
    if ambient_rank is None:
        if not vecs:
            raise ValueError("ambient_rank is required for a cone with no generators")
        ambient_rank = len(vecs[0])
    ambient_rank = _integer(ambient_rank, "the ambient rank must be an integer")
    if ambient_rank < 1:
        raise ValueError(f"the ambient rank must be at least 1, got {ambient_rank}")
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
    lin = left_kernel(_transpose(A, n), len(A))
    r = n - len(lin)
    if r == 0:
        return lin, ()
    P = left_kernel(_transpose(lin, n), len(lin))
    quotient_rays = _pointed_double_description([tuple(_dot(a, q) for q in P) for a in A], r)
    columns = _transpose(P, n)
    rays = sorted(_primitive(tuple(_dot(y, col) for col in columns)) for y in quotient_rays)
    return lin, tuple(rays)


def _pointed_double_description(ineq_rows, r):
    """Extreme rays of a cone ``{y : A y >= 0}`` known to be pointed.

    Pointedness means A has full column rank r, so r independent rows of A
    cut out a simplicial cone whose rays seed the incremental insertion.

    Every ray v carries its incidence mask ``tight[v]``: bit i is set when
    v is tight on row i, among the rows inserted so far.  Inserting a row,
    the rays it is tight on gain its bit, and a fresh ray built from an
    adjacent pair (u, w) gets ``tight[u] & tight[w]`` plus the new bit, with
    no dot product.  That is exact: for an inserted row b, ``<b, combo> =
    vals[u]<b, w> - vals[w]<b, u>`` with ``vals[u] > 0 > vals[w]`` and both
    inner products nonnegative, so it vanishes exactly when both do.  After
    each insertion the rays are exactly the extreme rays of the cone cut out
    so far, so the masks decide adjacency with no rank (the combinatorial
    test of Fukuda and Prodon): u and w span an edge when their common mask
    has at least r - 2 bits and no third ray is tight on all of it.
    """
    m = len(ineq_rows)
    # [A^T | I] reduces to [R | E] with E A^T = R.  R is the identity on its
    # pivot columns, the base rows B, so E = (B^T)^-1: row j of E is tight on
    # every base row but the j-th.  A pivot in the right block means A^T does
    # not have full row rank.
    reduced = subspace(QQ, [c + e for c, e in zip(zip(*ineq_rows), identity_matrix(r))])
    base = reduced.pivots
    if base[-1] >= m:
        raise AssertionError("inequality matrix does not have full column rank")
    seed = sum(1 << i for i in base)
    tight = {_primitive(row[m:]): seed ^ 1 << i for i, row in zip(base, reduced.basis)}
    rays = list(tight)
    for i, row in enumerate(ineq_rows):
        if i in base:
            continue
        bit = 1 << i
        vals = {v: _dot(row, v) for v in rays}
        plus = [v for v in rays if vals[v] > 0]
        zero = [v for v in rays if vals[v] == 0]
        minus = [v for v in rays if vals[v] < 0]
        for v in zero:
            tight[v] |= bit
        if minus:
            fresh = {}
            for u in plus:
                for w in minus:
                    common = tight[u] & tight[w]
                    if common.bit_count() < r - 2 or any(
                        tight[v] & common == common for v in rays if v != u and v != w
                    ):
                        continue
                    combo = tuple(vals[u] * b - vals[w] * a for a, b in zip(u, w))
                    fresh[_primitive(combo)] = common | bit
            rays = plus + zero + sorted(fresh)
            tight = {v: tight[v] for v in plus + zero} | fresh
    return sorted(rays)
