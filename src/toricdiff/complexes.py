"""Degree-by-degree complexes of wedge powers and their cohomology.

In a fixed degree m the complex is the exterior algebra on V_m with the
differential "wedge with w", the coordinates of m in V_m: the Koszul complex
of one vector.  That map preserves the grading, so cohomology over a box of
degrees is the direct sum of the per-degree answers.

Three paths compute cohomology, each on purpose:

- a box of degrees (:func:`_box_cohomology`, behind every table and check)
  builds no matrix.  Two identities of the wedge matrices, D∘D = 0 and a
  contracting homotopy, are proven once per dim V_m
  (:func:`toricdiff.forms._prove_koszul`).  A degree with w != 0 in the
  field is then exact, and one with w = 0 has zero differentials, so its
  cohomology is the whole wedge algebra on V_m.  What each degree costs is
  the integer test ``m in V_m`` that locates w;
- a single degree (:func:`degree_complex`, :func:`cohomology`) builds the
  matrices, checks d∘d = 0 and ranks them: Bareiss over QQ, the reduced
  row echelon form over GF(p).  The demos use it, and the tests hold it
  against the box path as a cross-check;
- :func:`oracle_full_complex` does not split by degree and ranks whole-box
  sparse matrices, an independent check of the grading argument.  Their
  blocks are the same ``wedge_matrix`` blocks whose identities the box path
  relies on, so the oracle checks those matrices too.  It keeps
  ``(dim V_m, w)`` per degree and one level's pivots, never a whole matrix.

Degrees stream by in lexicographic order and no command holds a table of
the box: a check reads them in one pass, and the ``cohomology`` command
writes each row as it arrives (:mod:`toricdiff.cli`, with the CSV row
format of :class:`_CsvRows`).  :class:`CohomologyTable` is the library
form, and the reference the tests hold the streamed bytes against: it
serializes to JSON and to CSV with one row per degree.  :func:`poincare_check`
returns its JSON document as a dict.  Output is byte-stable: degrees are
sorted, hashes are over the CSV bytes, of a table or of the stream alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
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

from .forms import _located_degree, _prove_koszul, wedge_matrix
from .linalg import _integer, field_of_characteristic, mat_mul, rank, sparse_rank

__all__ = [
    "DegreeComplex",
    "degree_complex",
    "cohomology",
    "CohomologyTable",
    "cohomology_table",
    "NoVertexError",
    "poincare_check",
    "poincare_text",
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
    asserted at construction.  They wedge with the coordinates of m in V_m:
    ints over QQ, residues over GF(p).
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
    m = cone._point(m)
    field = field_of_characteristic(char)
    char = field.characteristic
    sub, w = _located_degree(cone._normals_of(cone._mask_of(m)), m, char)
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

    def to_csv(self):
        degrees = self.degrees()
        lines = (_csv_line(m, self.entries[m]) for m in degrees)
        return _csv_header(len(degrees[0])) + "".join(lines)

    def table_hash(self):
        """sha256 of :meth:`to_csv`, fed line by line so the text is never built."""
        degrees = self.degrees()
        return _CsvRows(((m, self.entries[m]) for m in degrees), len(degrees[0])).hexdigest()


def _csv_line(m, h):
    return ",".join(str(x) for x in (*m, *h)) + "\n"


def _csv_header(n):
    return _csv_line([f"m{i + 1}" for i in range(n)], [f"h{a}" for a in range(n + 1)])


@lru_cache(maxsize=64)
def _csv_form(h):
    """The CSV line of a row with this h, as a ``%d`` format for its m."""
    return "%d," * (len(h) - 1) + ",".join(map(str, h)) + "\n"


class _CsvRows:
    """Rows ``(m, h)`` passed on in order, counted and hashed as CSV lines on the way."""

    def __init__(self, rows, n):
        self.rows, self.count = rows, 0
        self.digest = sha256(_csv_header(n).encode())

    def __iter__(self):
        for m, h in self.rows:
            self.digest.update((_csv_form(h) % m).encode())
            self.count += 1
            yield m, h

    def hexdigest(self):
        """sha256 of the header and every row; rows not yet passed on are read here."""
        for _ in self:
            pass
        return self.digest.hexdigest()


def cohomology_table(cone, bound, char):
    """Cohomology of every degree in the box, gathered from :func:`_box_cohomology`."""
    bound = _integer(bound, "the bound must be an integer")
    char = field_of_characteristic(char).characteristic
    return CohomologyTable(cone.rays, char, bound, dict(_box_cohomology(cone, bound, char)))


def _box_cohomology(cone, bound, char):
    """``(m, h)`` per degree of the box in lexicographic order, h by :func:`_degree_cohomology`."""
    n = cone.ambient_rank
    for m, mask in cone.lattice_points(bound):
        sub, w = _located_degree(cone._normals_of(mask), m, char)
        yield m, _degree_cohomology(n, sub.dim, w)


def _degree_cohomology(n, dim, w):
    """h of a degree from dim V_m and w, the coordinates of m in V_m (see the module docstring).

    Zero when w != 0, whose exactness :func:`_prove_koszul` proves, and
    ``C(dim V_m, a)`` when w = 0 and every differential is zero.
    """
    if any(w):
        _prove_koszul(len(w))
        return (0,) * (n + 1)
    return tuple(comb(dim, a) for a in range(n + 1))


# ---------------------------------------------------------------------------
# characteristic zero: contractibility degree by degree


def poincare_text(report):
    """The text of a :func:`poincare_check` report: the verdict, then each violation."""
    head = (
        f"poincare check over QQ: bound={report['bound']}, "
        f"degrees checked={report['checked']}: {'PASS' if report['passed'] else 'FAIL'}"
    )
    lines = [head]
    for v in report["violations"]:
        lines.append(f"  degree {v['degree']}: h={v['h']}, expected {v['expected']}")
    return "\n".join(lines)


def poincare_check(cone, bound):
    """Exactness over QQ, degree by degree: constants in degree zero, else nothing.

    Only stated for an exponent cone with a vertex (equivalently, the
    coordinate ring has no invertible variables); without one the check is
    refused rather than reported as a failure.  Returns the JSON document
    of the check: ``rays``, ``bound``, ``checked`` (degrees), ``passed``,
    ``violations`` (``{degree, h, expected}`` each) and ``table_hash``.
    """
    bound = _integer(bound, "the bound must be an integer")
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
            violations.append({"degree": m, "h": h, "expected": want})
    return {
        "rays": cone.rays,
        "bound": bound,
        "checked": rows.count,
        "passed": not violations,
        "violations": tuple(violations),
        "table_hash": rows.hexdigest(),
    }


# ---------------------------------------------------------------------------
# whole-box oracle


def oracle_full_complex(cone, bound, char):
    """Total cohomology of the box-truncated complex, without degree splitting.

    Each differential of the truncated complex is a single sparse matrix
    over all degrees at once, ranked by online sparse elimination.  The box
    is scanned once into ``(dim V_m, w)`` per degree; each level's columns
    are then read off each degree's ``wedge_matrix`` block in turn and
    streamed into :func:`sparse_rank`, so the matrix data held is one
    degree's block and one level's pivots.  Returns the total dimension
    vector ``h(0..n)``; comparing it against the column sums of
    :func:`cohomology_table` holds sparse elimination over the whole box
    against the identities proven once per dimension, on the very matrices
    those identities are about, and checks the grading argument on the way.
    """
    return _oracle(cone, bound, char)[0]


def _oracle(cone, bound, char):
    """The oracle's totals and the column sums of the degreewise table, from one scan.

    Each degree is located once, for the whole-box matrices and for
    :func:`_degree_cohomology`, the rule of every box table.
    """
    field = field_of_characteristic(char)
    n = cone.ambient_rank
    data = []
    for m, mask in cone.lattice_points(bound):
        sub, w = _located_degree(cone._normals_of(mask), m, field.characteristic)
        data.append((sub.dim, w))
    totals = [sum(comb(d, a) for d, _ in data) for a in range(n + 1)]
    ranks = [sparse_rank(field, _oracle_columns(field, data, a)) for a in range(n)]
    sums = (0,) * (n + 1)
    for d, w in data:
        sums = tuple(map(sum, zip(sums, _degree_cohomology(n, d, w))))
    return _homology(totals, ranks), sums


def _oracle_columns(field, data, a):
    """Nonzero columns of the whole-box differential out of level a, degree by degree.

    A degree's block is its own ``wedge_matrix(field, w, a)``, the matrix
    whose identities :func:`_prove_koszul` proves, with its rows shifted
    past those of every degree before it, C(dim V_m, a+1) rows each.
    """
    base = 0
    for d, w in data:
        if any(w):
            D = wedge_matrix(field, w, a)
            for column in zip(*D):
                col = {base + i: c for i, c in enumerate(column) if c}
                if col:
                    yield col
        base += comb(d, a + 1)
