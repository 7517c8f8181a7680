"""Graded pieces of the module of differential forms on a toric chart.

The coordinate ring of an affine toric chart is spanned by monomials x^m,
with m running over the lattice points of a full dimensional cone in the
exponent lattice.  The forms decompose degree by degree, and the degree-m
piece of the a-forms is the a-th wedge power of a single subspace V_m of
k^n: the intersection of the spans of the codimension-one faces through m,
reduced to the coefficient field: the kernel of the facet normals through
m (see :func:`facet_subspace`).  An interior m gets the whole of k^n.

Everything here takes the cone on the exponent side.  V_m is cached on the
normals through m, so a box of degrees solves each distinct set once per
characteristic.  The cache is bounded, so a long-lived process does not
grow with every cone it sees.  The differential "wedge with m" is proven
exact or zero once per dim V_m (:func:`_prove_koszul`), so a degree costs
only the integer test that locates m in V_m.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import lcm
from operator import mul

from .linalg import _int_vector, field_of_characteristic, kernel, lattice_subspace

__all__ = [
    "facet_subspace",
    "degree_subspace",
    "wedge_subsets",
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
    entries are those of w, negated where the sign is odd: over GF(p) w and
    -w are reduced once, so every entry is a residue, and over QQ integer w
    gives an integer matrix.
    """
    signed = (w, [-c for c in w])
    if field.characteristic:
        signed = [list(map(field.of, v)) for v in signed]
    d = len(w)
    D = [[0] * len(wedge_subsets(d, a)) for _ in wedge_subsets(d, a + 1)]
    for row, col, odd, pos in _wedge_template(d, a):
        c = signed[odd][pos]
        if c:
            D[row][col] = c
    return tuple(map(tuple, D))


@lru_cache(maxsize=None)
def _prove_koszul(d):
    """Prove, for every w at once, the two identities the box tables rest on.

    ``D(w) = wedge_matrix(field, w, a)`` on each level a has the entries
    ±w_pos of :func:`_wedge_template`: linear forms in w with integer
    coefficients.  Let h_i be the interior product by ``e_i*``, which sends
    ``e_I`` to ``(-1)^t e_{I-i}`` for i the t-th index of I.  Expanded
    coefficient by coefficient on every level of ``k^d``:

    - ``D(w) D(w) = 0``: wedging with w is a complex;
    - ``D(w) h_i + h_i D(w) = w_i id``: if some w_i is invertible, every
      cocycle z is the boundary of ``h_i z / w_i``, so the complex is exact.

    Both hold over every field.  Raises AssertionError when one fails.
    """
    D = {}  # D[I] = [(J, sign, pos)] with e_pos ∧ e_I = sign e_J, from the template
    for a in range(d + 1):
        basis, up = wedge_subsets(d, a), wedge_subsets(d, a + 1)
        for row, col, odd, pos in _wedge_template(d, a):
            D.setdefault(basis[col], []).append((up[row], -1 if odd else 1, pos))
    square = Counter()
    for I, out in D.items():
        for J, s, p in out:
            for K, t, q in D.get(J, ()):
                square[I, K, min(p, q), max(p, q)] += s * t
    if any(square.values()):
        raise AssertionError(f"wedge template of k^{d}: D(w) D(w) is not zero")
    subsets = [I for a in range(d + 1) for I in wedge_subsets(d, a)]
    for i in range(d):
        homotopy = Counter()
        for I in subsets:
            if i in I:
                K, s = _contract(I, i)
                for J, t, p in D.get(K, ()):
                    homotopy[I, J, p] += s * t
            for J, t, p in D.get(I, ()):
                if i in J:
                    K, s = _contract(J, i)
                    homotopy[I, K, p] += s * t
        if {k: v for k, v in homotopy.items() if v} != {(I, I, i): 1 for I in subsets}:
            raise AssertionError(f"wedge template of k^{d}: h_{i} is no contracting homotopy")


def _contract(I, i):
    """Interior product by ``e_i*`` on ``e_I`` (i in I): ``(I - i, sign)``."""
    t = I.index(i)
    return I[:t] + I[t + 1 :], (-1) ** t


# Entries held by the V_m cache.  A box touches one entry per distinct face
# set, so this is far above any table's working set; it only stops a long
# process that visits many cones from growing without limit.
_VM_CACHE_SIZE = 4096


def facet_subspace(facet, char):
    """Subspace of k^n spanned by one codimension-one face: the reference.

    The face's saturated span lattice is tensored with the coefficient
    field; saturation guarantees the dimension survives reduction mod p.
    Lemma: it is ``ker(u)`` for the face's primitive normal u.  The span lies
    in ``ker(u)``, and both have dimension n-1, since u is not 0 mod p.  The
    program uses the lemma (:func:`_kernel_of_normals`); tests use this.
    """
    return lattice_subspace(facet.span, field_of_characteristic(char))


def degree_subspace(cone, m, char):
    """V_m: intersection of the face subspaces over the faces through m.

    ``m`` must be a lattice point of the cone.  V_m is found after reduction,
    as the kernel of the reduced normals of those faces, not by intersecting
    lattices first, which could come out too small mod p.  The vector m
    itself always lies in V_m, and that is asserted on every call.
    """
    m = cone._point(m)
    char = field_of_characteristic(char).characteristic
    return _located_degree(cone._normals_of(cone._mask_of(m)), m, char)[0]


def _located_degree(normals, m, char):
    """V_m for the facet normals through m, with the coordinates w of m in its basis.

    In the reduced basis the coordinates of a vector of V_m are its entries
    at the pivot columns, so w is read off m, and ``m in V_m`` is asserted by
    one integer identity per other column (see :func:`_kernel_of_normals`).
    Over GF(p), w is reduced mod p.
    """
    sub, scale, free = _kernel_of_normals(normals, len(m), char)
    w = tuple(m[i] % char if char else m[i] for i in sub.pivots)
    for j, col in free:
        gap = scale * m[j] - sum(map(mul, w, col))
        if gap % char if char else gap:
            raise AssertionError(f"degree {m} escaped its own subspace")
    return sub, w


@lru_cache(maxsize=_VM_CACHE_SIZE)
def _kernel_of_normals(normals, n, char):
    """``(V_m, scale, ((j, col_j), ...))`` for the facet normals through m.

    ``col_j`` holds entry j of every basis row for each non-pivot column j,
    times ``scale``, the lcm of their denominators (1 over GF(p)).  A vector
    with coordinates w lies in V_m exactly when ``scale * m_j == sum_i w_i *
    col_j[i]`` for each such j, mod p over GF(p).  An interior degree has
    none to check.  The key holds only ints, so no cone is kept alive.
    """
    sub = kernel(field_of_characteristic(char), normals, ncols=n)
    free = [j for j in range(n) if j not in sub.pivots]
    scale = lcm(*(row[j].denominator for row in sub.basis for j in free))
    return sub, scale, tuple((j, tuple(int(row[j] * scale) for row in sub.basis)) for j in free)


# ---------------------------------------------------------------------------
# printable differential forms


def _vec_str(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def to_form(m, terms):
    """The printed form of a degree-m wedge element.

    ``terms`` is an iterable of ``(coefficient, factors)`` pairs; each
    factor is an integer exponent vector of the length of m.  A term with
    factors f_1..f_a in degree m prints as
    ``c*x^(m - f_1 - ... - f_a) dx^(f_1)∧...∧dx^(f_a)``, so every term
    carries total degree m, and the ``c*`` is left out when c is 1.  Terms
    are sorted by their factor tuples and joined by ``" + "``; zero
    coefficients are dropped, and an empty sum prints as ``"0"``.

    >>> to_form((2, 0), [(1, ((1, 0),))])
    'x^(1,0) dx^(1,0)'
    >>> to_form((2, 2), [(1, ((1, 0), (0, 1)))])
    'x^(1,1) dx^(1,0)∧dx^(0,1)'
    >>> to_form((1, 0), [])
    '0'
    """
    m = _int_vector(m, "degree")
    out = []
    for coeff, factors in terms:
        fac = tuple(_int_vector(f, "factor") for f in factors)
        for f in fac:
            if len(f) != len(m):
                raise ValueError(f"factor {f} does not have the {len(m)} entries of degree {m}")
        if coeff == 0:
            continue
        exponent = [mi - sum(f[i] for f in fac) for i, mi in enumerate(m)]
        text = ("" if coeff == 1 else f"{coeff}*") + f"x^{_vec_str(exponent)}"
        if fac:
            text += " " + "∧".join(f"dx^{_vec_str(f)}" for f in fac)
        out.append((fac, text))
    # the monomial part is m minus the factors, so the factors fix the order
    return " + ".join(text for _, text in sorted(out, key=lambda t: t[0])) or "0"
