"""Graded pieces of the module of differential forms on a toric chart.

The coordinate ring of an affine toric chart is spanned by monomials x^m,
with m running over the lattice points of a full dimensional cone in the
exponent lattice.  The forms decompose degree by degree, and the degree-m
piece of the a-forms is the a-th wedge power of a single subspace V_m of
k^n: the intersection of the spans of the codimension-one faces through m,
reduced to the coefficient field.  An interior m sees no face and gets the
whole of k^n.

Everything here takes the cone on the exponent side.  V_m is cached per set
of faces, so scanning a large box of degrees builds each distinct face set
once per characteristic; a face subspace is rebuilt only on a miss of that
cache.  The cache is bounded, so a long-lived process does not grow with
every cone it sees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .linalg import field_of_characteristic, full_space, intersect, lattice_subspace

__all__ = [
    "facet_subspace",
    "degree_subspace",
    "wedge_subsets",
    "FormTerm",
    "FormExpression",
    "to_form",
]


@lru_cache(maxsize=None)
def wedge_subsets(dim, a):
    """Lexicographic index subsets: the standard basis of the a-th wedge power."""
    if a < 0 or a > dim:
        return ()
    return tuple(itertools.combinations(range(dim), a))


@lru_cache(maxsize=None)
def _wedge_template(d, a):
    """``(row, column, odd, pos)`` for each entry ``e_pos ∧ e_I = ±e_J`` of
    :func:`wedge_matrix` on level a of ``k^d``; odd marks the minus sign."""
    index = {J: j for j, J in enumerate(wedge_subsets(d, a + 1))}
    out = []
    for col, I in enumerate(wedge_subsets(d, a)):
        for pos in range(d):
            if pos not in I:
                J = tuple(sorted(I + (pos,)))
                out.append((index[J], col, sum(1 for x in I if x < pos) % 2 == 1, pos))
    return tuple(out)


def wedge_matrix(field, w, a):
    """Matrix of ``w ∧ -`` from wedge level a to level a+1 of ``k^len(w)``.

    Rows and columns are indexed by the lexicographic subsets of
    :func:`wedge_subsets`: ``e_pos ∧ e_I`` is ``e_J`` for J the sorted union,
    with the sign of moving ``pos`` past the indices of I below it.  The
    entries are those of w, negated where the sign is odd, so integer w gives
    an integer matrix.
    """
    d = len(w)
    D = [[0] * len(wedge_subsets(d, a)) for _ in wedge_subsets(d, a + 1)]
    neg = field.neg
    for row, col, odd, pos in _wedge_template(d, a):
        c = w[pos]
        if c:
            D[row][col] = neg(c) if odd else c
    return tuple(map(tuple, D))


# Entries held by the V_m cache.  A box touches one entry per distinct face
# set, so this is far above any table's working set; it only stops a long
# process that visits many cones from growing without limit.
_VM_CACHE_SIZE = 4096


def facet_subspace(facet, char):
    """Subspace of k^n spanned by one codimension-one face.

    The face's saturated span lattice is tensored with the coefficient
    field; saturation guarantees the dimension survives reduction mod p.
    """
    return lattice_subspace(facet.span, field_of_characteristic(char))


def degree_subspace(cone, m, char):
    """V_m: intersection of the face subspaces over the faces through m.

    ``m`` must be a lattice point of the cone.  The intersection is taken
    inside k^n after reduction (not by intersecting lattices first, which
    could come out too small mod p).  The vector m itself always lies in
    V_m, and that is asserted on every call.
    """
    facets = cone.facets_containing(m)
    return _located_degree(facets, tuple(int(x) for x in m), char)[0]


def _located_degree(facets, m, char):
    """V_m for the faces through m, with the coordinates of m in its basis.

    One coordinate solve both gives the coordinates and asserts ``m in V_m``.
    """
    sub = _facet_intersection(facets, len(m), char)
    w = sub.coordinates_of(m)
    if w is None:
        raise AssertionError(f"degree {m} escaped its own subspace")
    return sub, w


@lru_cache(maxsize=_VM_CACHE_SIZE)
def _facet_intersection(facets, n, char):
    # keyed on the facets themselves, not the cone, so the cache keeps no cone alive
    field = field_of_characteristic(char)
    if not facets:
        return full_space(field, n)
    out = facet_subspace(facets[0], char)
    for f in facets[1:]:
        out = intersect(out, facet_subspace(f, char))
    return out


# ---------------------------------------------------------------------------
# printable differential forms


def _vec_str(v):
    return "(" + ",".join(str(int(x)) for x in v) + ")"


@dataclass(frozen=True)
class FormTerm:
    """One monomial form ``c * x^exponent dx^f1 ∧ ... ∧ dx^fa``."""

    coefficient: object
    exponent: tuple
    factors: tuple

    def __str__(self):
        head = "" if self.coefficient == 1 else f"{self.coefficient}*"
        body = f"x^{_vec_str(self.exponent)}"
        if self.factors:
            body += " " + "∧".join(f"dx^{_vec_str(f)}" for f in self.factors)
        return head + body


@dataclass(frozen=True)
class FormExpression:
    """Sum of monomial forms with a stable string syntax.

    >>> str(FormExpression((FormTerm(1, (2, 0), ((1, 0), (0, 1))),)))
    'x^(2,0) dx^(1,0)∧dx^(0,1)'
    >>> str(FormExpression(()))
    '0'
    """

    terms: tuple

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


def to_form(m, terms):
    """Printable form of a degree-m wedge element.

    ``terms`` is an iterable of ``(coefficient, factors)`` pairs; each
    factor is an integer exponent vector.  A term with factors f_1..f_a in
    degree m prints as ``x^(m - f_1 - ... - f_a) dx^(f_1)∧...∧dx^(f_a)``,
    so every term carries total degree m.  Terms are sorted by their factor
    tuples; zero coefficients are dropped.

    >>> str(to_form((2, 0), [(1, ((1, 0),))]))
    'x^(1,0) dx^(1,0)'
    """
    m = tuple(int(x) for x in m)
    out = []
    for coeff, factors in terms:
        if coeff == 0:
            continue
        fac = tuple(tuple(int(x) for x in f) for f in factors)
        exponent = tuple(mi - sum(f[i] for f in fac) for i, mi in enumerate(m))
        total = tuple(e + sum(f[i] for f in fac) for i, e in enumerate(exponent))
        if total != m:
            raise AssertionError("term degree drifted away from m")
        out.append(FormTerm(coeff, exponent, fac))
    return FormExpression(tuple(sorted(out, key=lambda t: (t.factors, t.exponent))))
