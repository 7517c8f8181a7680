"""Degree-by-degree complexes of wedge powers and their cohomology.

In a fixed degree m the complex is the exterior algebra on V_m with the
differential "wedge with the class of m".  That map preserves the grading,
so cohomology over a box of degrees is the direct sum of the per-degree
answers; the fast path exploits this, while :func:`oracle_full_complex`
deliberately does not and serves as an independent cross-check.

Over QQ the differentials are integer matrices.  For c != 0 the complex of
c*w is c times the complex of w: every differential is scaled by c, so the
ranks are unchanged and d∘d = 0 holds for one exactly when it holds for the
other.  The coordinates w of m in V_m are therefore scaled by a positive
factor to the primitive integer vector on their line, and the ranks and the
d∘d check run on Python ints.  This is linear algebra about the complex,
not the statement under test.

Degrees stream by in lexicographic order (:func:`_box_cohomology`) and a
check reads them in one pass, holding no table of the box.  Over GF(p) each
degree type is computed once.  The type of m is its facet bitmask from the
box scan (:meth:`Cone.lattice_points`) together with m mod p.  This is sound
by construction: V_m is the intersection of the face subspaces picked out
by the mask, and the coordinates of m in V_m, which fix every differential,
only see m mod p.  Over QQ each degree is computed on its own, from its mask.

Tables and reports serialize to JSON (round-trips through ``from_json``)
and to CSV with one row per degree.  Output is byte-stable: degrees are
sorted, hashes are over the CSV bytes, of a table or of the stream alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

# The interpreter's built-in sha256 gives the same digest as OpenSSL's, and
# importing it does not load libcrypto, about 3.5 MB of peak RSS.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .forms import _located_degree, wedge_matrix, wedge_subsets
from .linalg import (
    _primitive,
    field_of_characteristic,
    mat_mul,
    rank,
    sparse_rank,
)

__all__ = [
    "DegreeComplex",
    "degree_complex",
    "cohomology",
    "CohomologyTable",
    "cohomology_table",
    "NoVertexError",
    "PoincareReport",
    "poincare_check",
    "oracle_full_complex",
]


class NoVertexError(ValueError):
    """The exactness statement is only made for cones with a vertex."""


@dataclass(frozen=True, eq=False)
class DegreeComplex:
    """Wedge-power complex in one degree.

    ``dims[a]`` is the dimension at level a and ``differentials[a]`` the
    matrix of level a into level a+1, a tuple of row tuples (columns indexed
    by the lexicographic wedge basis).  Consecutive differentials compose to zero; this is
    asserted at construction.

    Over QQ the differential wedges with the primitive integer vector on the
    line of the coordinates of m, so the matrices have int entries; by the
    lemma in the module docstring they have the ranks of the unscaled ones.
    Over GF(p) they wedge with the coordinates of m themselves.
    """

    degree: tuple
    characteristic: int
    dims: tuple
    differentials: tuple


def degree_complex(cone, m, char):
    """The complex in degree m, differential given by wedging with m in V_m.

    When m vanishes in V_m (over GF(p) exactly for m in p times the
    lattice, over QQ only for m = 0) every differential is the zero matrix.
    """
    m = tuple(int(x) for x in m)
    return _assemble(cone.facets_containing(m), m, char)


def _assemble(facets, m, char):
    """:func:`degree_complex` for a degree whose faces are already known."""
    field = field_of_characteristic(char)
    sub, w = _located_degree(facets, m, char)
    if not char:
        w = _primitive(w)
    n = len(m)
    diffs = [wedge_matrix(field, w, a) for a in range(n)]
    for a in range(n - 1):
        if any(map(any, mat_mul(field, diffs[a + 1], diffs[a]))):
            raise AssertionError("differential does not square to zero")
    return DegreeComplex(m, char, tuple(comb(sub.dim, a) for a in range(n + 1)), tuple(diffs))


def cohomology(dc):
    """Cohomology dimensions of a degree complex by rank and nullity."""
    field = field_of_characteristic(dc.characteristic)
    return _homology(dc.dims, [rank(field, D) for D in dc.differentials])


def _homology(dims, ranks):
    """``dims[a]`` less the ranks of the differentials out of and into level a."""
    return tuple(d - out - into for d, out, into in zip(dims, [*ranks, 0], [0, *ranks]))


# ---------------------------------------------------------------------------
# tables over a box of degrees


@dataclass
class CohomologyTable:
    """Per-degree cohomology dimensions over the box ``[-bound, bound]^n``."""

    rays: tuple
    characteristic: int
    bound: int
    entries: dict

    def degrees(self):
        return tuple(sorted(self.entries))

    def to_json(self):
        payload = {
            "rays": [list(r) for r in self.rays],
            "characteristic": self.characteristic,
            "bound": self.bound,
            "cohomology": [
                {"degree": list(m), "h": list(self.entries[m])}
                for m in sorted(self.entries)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        entries = {
            tuple(row["degree"]): tuple(row["h"]) for row in data["cohomology"]
        }
        return cls(
            tuple(tuple(r) for r in data["rays"]),
            data["characteristic"],
            data["bound"],
            entries,
        )

    def _rows(self):
        degrees = self.degrees()
        return _CsvRows(((m, self.entries[m]) for m in degrees), len(degrees[0]))

    def to_csv(self):
        rows = self._rows()
        return rows.header + "".join(_csv_line(m, h) for m, h in rows)

    def table_hash(self):
        """sha256 of :meth:`to_csv`, fed line by line so the text is never built."""
        return self._rows().hexdigest()


def _csv_line(m, h):
    return ",".join(str(x) for x in (*m, *h)) + "\n"


class _CsvRows:
    """Rows ``(m, h)`` passed on in order, counted and hashed as CSV lines on the way."""

    def __init__(self, rows, n):
        self.rows, self.count = rows, 0
        self.header = _csv_line([f"m{i + 1}" for i in range(n)], [f"h{a}" for a in range(n + 1)])
        self.digest = sha256(self.header.encode())

    def __iter__(self):
        for m, h in self.rows:
            self.digest.update(_csv_line(m, h).encode())
            self.count += 1
            yield m, h

    def hexdigest(self):
        """sha256 of the header and every row; rows not yet passed on are read here."""
        for _ in self:
            pass
        return self.digest.hexdigest()


def cohomology_table(cone, bound, char):
    """Cohomology of every degree in the box, gathered from :func:`_box_cohomology`."""
    return CohomologyTable(cone.rays, char, bound, dict(_box_cohomology(cone, bound, char)))


def _box_cohomology(cone, bound, char):
    """``(m, h)`` for every degree of the box, lexicographic; a GF(p) type is computed once."""
    memo = {}
    for m, mask in cone.lattice_points(bound):
        key = (mask, tuple(x % char for x in m)) if char else None
        got = memo.get(key)
        if got is None:
            got = cohomology(_assemble(cone._facets_of(mask), m, char))
            if char:
                memo[key] = got
        yield m, got


# ---------------------------------------------------------------------------
# characteristic zero: contractibility degree by degree


@dataclass
class PoincareReport:
    """Outcome of the characteristic-zero exactness check over a box."""

    rays: tuple
    bound: int
    checked: int
    passed: bool
    violations: tuple
    table_hash: str

    def to_json(self):
        payload = {
            "rays": [list(r) for r in self.rays],
            "bound": self.bound,
            "checked": self.checked,
            "passed": self.passed,
            "violations": [
                {"degree": list(m), "h": list(h), "expected": list(want)}
                for m, h, want in self.violations
            ],
            "table_hash": self.table_hash,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        violations = tuple(
            (tuple(v["degree"]), tuple(v["h"]), tuple(v["expected"]))
            for v in data["violations"]
        )
        return cls(
            tuple(tuple(r) for r in data["rays"]),
            data["bound"],
            data["checked"],
            data["passed"],
            violations,
            data["table_hash"],
        )

    def to_text(self):
        head = (
            f"poincare check over QQ: bound={self.bound}, "
            f"degrees checked={self.checked}: {'PASS' if self.passed else 'FAIL'}"
        )
        lines = [head]
        for m, h, want in self.violations:
            lines.append(f"  degree {m}: h={h}, expected {want}")
        return "\n".join(lines)


def poincare_check(cone, bound):
    """Exactness over QQ, degree by degree: constants in degree zero, else nothing.

    Only stated for an exponent cone with a vertex (equivalently, the
    coordinate ring has no invertible variables); without one the check is
    refused rather than reported as a failure.
    """
    if not cone.has_vertex():
        raise NoVertexError(
            "exponent cone contains a line; the exactness statement requires a vertex"
        )
    n = cone.ambient_rank
    point = (1,) + (0,) * n
    nothing = (0,) * (n + 1)
    rows = _CsvRows(_box_cohomology(cone, bound, 0), n)
    violations = []
    for m, h in rows:
        want = nothing if any(m) else point
        if h != want:
            violations.append((m, h, want))
    return PoincareReport(
        cone.rays,
        bound,
        rows.count,
        not violations,
        tuple(violations),
        rows.hexdigest(),
    )


# ---------------------------------------------------------------------------
# whole-box oracle


def oracle_full_complex(cone, bound, char):
    """Total cohomology of the box-truncated complex, without degree splitting.

    Assembles each differential of the truncated complex as a single sparse
    matrix over all degrees at once and computes ranks by online sparse
    elimination.  Returns the total dimension vector ``h(0..n)``; comparing
    it against the column sums of :func:`cohomology_table` exercises both
    the grading argument and two unrelated elimination codepaths.
    """
    field = field_of_characteristic(char)
    n = cone.ambient_rank
    data = []
    for m, mask in cone.lattice_points(bound):
        sub, w = _located_degree(cone._facets_of(mask), m, char)
        data.append((sub.dim, w))
    offsets = []
    totals = []
    for a in range(n + 1):
        offs = []
        t = 0
        for d, _ in data:
            offs.append(t)
            t += comb(d, a)
        offsets.append(offs)
        totals.append(t)
    ranks = []
    for a in range(n):
        cols = []
        for k, (d, w) in enumerate(data):
            if all(x == field.zero for x in w):
                continue
            target = {J: j for j, J in enumerate(wedge_subsets(d, a + 1))}
            base = offsets[a + 1][k]
            for I in wedge_subsets(d, a):
                col = {}
                for pos, c in enumerate(w):
                    if c == field.zero or pos in I:
                        continue
                    J = tuple(sorted(I + (pos,)))
                    sign = -1 if sum(1 for x in I if x < pos) % 2 else 1
                    col[base + target[J]] = field.mul(field.of(sign), c)
                if col:
                    cols.append(col)
        ranks.append(sparse_rank(field, cols))
    return _homology(totals, ranks)
