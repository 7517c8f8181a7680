"""Frobenius degree-shift maps and the characteristic-p verification suite.

Over GF(p) the complex in any degree divisible by p has zero differential,
so its cohomology is the whole wedge algebra there, while degrees off the
multiples of p are expected to carry nothing.  The degree shift
``phi: (m' in V_m) x^m -> (m' in V_pm) x^{pm}`` realizes the comparison:
it is a split injection (projection onto the p-divisible degrees splits
it) and induces an isomorphism onto the cohomology of the pushed-forward
complex.  Every identity here is checked by honest matrix computation over
a box of degrees; nothing is assumed from the statements being verified.

The matrix work runs once per degree type and is replayed for every source
degree of that type.  The type of a source degree m is the triple (facets
through m, facets through pm, pm mod p), read from the box classification
of the cone.  It is sound because the shift matrix only depends on V_m and
V_pm, which the two face sets determine, and the complex at pm only on V_pm
and the residues of pm.  Violations are still reported per source degree,
and ``m in V_m`` is still asserted for each one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .complexes import cohomology_table, degree_complex
from .forms import FormExpression, FormTerm, degree_subspace, to_form, wedge_subsets
from .linalg import GF, mat_mul, rank, zero_matrix

__all__ = [
    "PhiMap",
    "phi",
    "CheckResult",
    "check_chain_map",
    "check_split",
    "inverse_cartier_generator_check",
    "LevelSummary",
    "CartierReport",
    "verify_isomorphism",
]


@dataclass(frozen=True, eq=False)
class PhiMap:
    """Matrix of the degree shift on one wedge level, in the subset bases."""

    source_degree: tuple
    target_degree: tuple
    a: int
    matrix: object


def _det(field, rows):
    k = len(rows)
    if k == 0:
        return field.one
    if k == 1:
        return rows[0][0]
    out = field.zero
    for j in range(k):
        if rows[0][j] == field.zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = field.mul(rows[0][j], _det(field, minor))
        out = field.add(out, term if j % 2 == 0 else field.neg(term))
    return out


def _wedge_power(field, rows, a):
    d = len(rows)
    subsets = wedge_subsets(d, a)
    M = zero_matrix(len(subsets), len(subsets))
    for ci, I in enumerate(subsets):
        for ri, J in enumerate(subsets):
            M[ri, ci] = _det(field, [[rows[i][j] for j in J] for i in I])
    return M


def phi(cone, m, a, p):
    """The degree shift m -> pm on wedge level a, as an honest matrix.

    Built as the a-th compound of the change of basis from V_m to V_pm.
    The two subspaces coincide (face sets are scale invariant), so the
    matrix works out to the identity; what is asserted here is only
    invertibility, which makes the map injective on every graded piece.
    """
    field = GF(p)
    m = tuple(int(x) for x in m)
    pm = tuple(p * x for x in m)
    sub_m = degree_subspace(cone, m, p)
    sub_pm = degree_subspace(cone, pm, p)
    if sub_m != sub_pm:
        raise ArithmeticError(
            f"internal error: subspaces at {m} and {pm} disagree, the degree shift is broken"
        )
    rows = []
    for basis_row in sub_m.basis:
        coords = sub_pm.coordinates_of(basis_row)
        if coords is None:
            raise ArithmeticError("internal error: basis row escaped the target subspace")
        rows.append(list(coords))
    M = _wedge_power(field, rows, a)
    if rank(field, M) != comb(sub_m.dim, a):
        raise ArithmeticError(f"internal error: degree shift not invertible at {m}, a={a}")
    return PhiMap(m, pm, a, M)


@dataclass
class CheckResult:
    """Outcome of one verification pass over a box of source degrees."""

    name: str
    checked: int
    violations: tuple

    @property
    def passed(self):
        return not self.violations

    def to_text(self):
        state = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: checked {self.checked} degrees: {state}"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _shift_outcome(cone, m, dim, p):
    """Chain map, splitting and induced rank of the shift at m, level by level.

    Entry a is ``(closed, split, induced)``: whether the target
    differential kills the image of the shift (vacuous at the top level,
    which has no differential), whether the shift matrix is the identity
    on the ``C(dim, a)`` wedge basis, and the rank the shift induces in
    cohomology at pm.  Everything is multiplied out from :func:`phi` and
    the complex at pm.
    """
    field = GF(p)
    n = cone.ambient_rank
    target = degree_complex(cone, tuple(p * x for x in m), p)
    out = []
    for a in range(n + 1):
        M = phi(cone, m, a, p).matrix
        closed = a == n or not any(
            x != field.zero for x in mat_mul(field, target.differentials[a], M).flat
        )
        k = comb(dim, a)
        split = all(
            M[i, j] == (field.one if i == j else field.zero)
            for i in range(k)
            for j in range(k)
        )
        boundaries = (
            target.differentials[a - 1] if a > 0 else zero_matrix(target.dims[0], 0)
        )
        stacked = np.concatenate([M, boundaries], axis=1) if boundaries.shape[1] else M
        induced = rank(field, stacked) - rank(field, boundaries)
        out.append((closed, split, induced))
    return tuple(out)


def _typed_sources(cone, bound, p):
    """Source degrees of the box, each with V_m and the outcome of its type.

    :func:`_shift_outcome` runs once per degree type (see the module
    docstring) and is replayed for the other degrees of the type.
    ``degree_subspace`` runs on every source degree, so ``m in V_m`` is
    asserted for each.
    """
    points = cone.lattice_points(bound)
    shifted = [tuple(p * x for x in m) for m in points]
    memo = {}
    masks = zip(cone.facet_masks(bound), cone.classify(shifted))
    for m, pm, (mask, pmask) in zip(points, shifted, masks):
        sub = degree_subspace(cone, m, p)
        key = (mask, pmask, tuple(x % p for x in pm))
        got = memo.get(key)
        if got is None:
            got = memo[key] = _shift_outcome(cone, m, sub.dim, p)
        yield m, sub, got


def _not_closed(m, a):
    return f"degree {m}, a={a}: shift image is not closed"


def _not_split(m, a):
    return f"degree {m}, a={a}: projection composed with the shift is not the identity"


def check_chain_map(cone, bound, p):
    """Compatibility with the differentials, degree by degree.

    The composite of the shift with the target differential must vanish.
    The target sits in degree pm, where the differential is wedging with pm
    in V_pm, and pm is zero in V_pm over GF(p).  So the target differential
    is the zero matrix and a wrong shift matrix cannot fail this check; what
    it can catch is a wrong complex at pm, as in the perturbed-differential
    negative control.  The matrices are multiplied out, once per degree type.
    """
    n = cone.ambient_rank
    violations = []
    checked = 0
    for m, _, outcome in _typed_sources(cone, bound, p):
        for a in range(n):
            if not outcome[a][0]:
                violations.append(_not_closed(m, a))
        checked += 1
    return CheckResult("chain map", checked, tuple(violations))


def check_split(cone, bound, p):
    """Projection onto the p-divisible degrees splits the shift.

    In degree pm the projection acts as the identity, so the composite is
    the shift matrix itself, compared entry by entry with the identity.
    """
    violations = []
    checked = 0
    for m, _, outcome in _typed_sources(cone, bound, p):
        for a, (_, split, _) in enumerate(outcome):
            if not split:
                violations.append(_not_split(m, a))
        checked += 1
    return CheckResult("splitting", checked, tuple(violations))


def inverse_cartier_generator_check(cone, bound, p):
    """On generators the inverse map reads ``dx^m -> x^((p-1)m) dx^m``.

    Checked through the printable form layer: the shift of the one-form
    ``dx^m`` sits in degree pm, and writing it as a form must factor the
    monomial ``x^((p-1)m)`` out in front of ``dx^m``, with matching wedge
    coordinates on both sides.
    """
    violations = []
    checked = 0
    for m in cone.lattice_points(bound):
        if not any(m):
            continue
        pm = tuple(p * x for x in m)
        sub_m = degree_subspace(cone, m, p)
        sub_pm = degree_subspace(cone, pm, p)
        if sub_m.coordinates_of(m) != sub_pm.coordinates_of(m):
            violations.append(f"degree {m}: wedge coordinates drift under the shift")
        shifted = to_form(pm, [(1, (m,))])
        expected = FormExpression(
            (FormTerm(1, tuple((p - 1) * x for x in m), (m,)),)
        )
        if shifted != expected or str(shifted) != str(expected):
            violations.append(
                f"degree {m}: shift of dx^{m} prints as {shifted}, expected {expected}"
            )
        if FormExpression.parse(str(shifted)) != shifted:
            violations.append(f"degree {m}: form does not survive a parse round trip")
        checked += 1
    return CheckResult("generator identity", checked, tuple(violations))


# ---------------------------------------------------------------------------
# the full isomorphism report


@dataclass
class LevelSummary:
    """Per wedge level outcome of the isomorphism verification."""

    a: int
    sources_checked: int
    chain_map_ok: bool
    split_ok: bool
    isomorphism_ok: bool
    source_dim_total: int
    cohomology_dim_total: int


@dataclass
class CartierReport:
    """Aggregated outcome of the characteristic-p verification over a box."""

    rays: tuple
    p: int
    bound: int
    target_bound: int
    levels: tuple
    concentration_ok: bool
    target_degrees: int
    violations: tuple
    table_hash: str

    @property
    def passed(self):
        return (
            self.concentration_ok
            and not self.violations
            and all(
                lv.chain_map_ok and lv.split_ok and lv.isomorphism_ok
                for lv in self.levels
            )
        )

    def to_json(self):
        payload = {
            "rays": [list(r) for r in self.rays],
            "p": self.p,
            "bound": self.bound,
            "target_bound": self.target_bound,
            "levels": [
                {
                    "a": lv.a,
                    "sources_checked": lv.sources_checked,
                    "chain_map_ok": lv.chain_map_ok,
                    "split_ok": lv.split_ok,
                    "isomorphism_ok": lv.isomorphism_ok,
                    "source_dim_total": lv.source_dim_total,
                    "cohomology_dim_total": lv.cohomology_dim_total,
                }
                for lv in self.levels
            ],
            "concentration_ok": self.concentration_ok,
            "target_degrees": self.target_degrees,
            "violations": list(self.violations),
            "table_hash": self.table_hash,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        levels = tuple(
            LevelSummary(
                lv["a"],
                lv["sources_checked"],
                lv["chain_map_ok"],
                lv["split_ok"],
                lv["isomorphism_ok"],
                lv["source_dim_total"],
                lv["cohomology_dim_total"],
            )
            for lv in data["levels"]
        )
        return cls(
            tuple(tuple(r) for r in data["rays"]),
            data["p"],
            data["bound"],
            data["target_bound"],
            levels,
            data["concentration_ok"],
            data["target_degrees"],
            tuple(data["violations"]),
            data["table_hash"],
        )

    def to_text(self):
        lines = [
            f"cartier verification: p={self.p}, source bound={self.bound} "
            f"(targets scanned to {self.target_bound})"
        ]
        for lv in self.levels:
            lines.append(
                f"  a={lv.a}: sources={lv.sources_checked}, "
                f"chain map {'PASS' if lv.chain_map_ok else 'FAIL'}, "
                f"splitting {'PASS' if lv.split_ok else 'FAIL'}, "
                f"isomorphism {'PASS' if lv.isomorphism_ok else 'FAIL'} "
                f"(source dim {lv.source_dim_total}, cohomology dim {lv.cohomology_dim_total})"
            )
        lines.append(
            f"  off-multiple degrees carry no cohomology: "
            f"{'PASS' if self.concentration_ok else 'FAIL'} "
            f"({self.target_degrees} target degrees)"
        )
        for v in self.violations:
            lines.append(f"  violation: {v}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_isomorphism(cone, bound, p):
    """Full verification that the shift hits exactly the cohomology.

    Two halves, both computed without shortcuts: (i) every degree in the
    enlarged box ``[-p*bound, p*bound]^n`` that is not a multiple of p
    carries zero cohomology; (ii) for every source degree m in the
    ``bound`` box and every level a, the shift lands on cocycles, its
    composite with the projection is the identity, and the induced map
    into cohomology at pm is bijective (injective by rank, surjective by
    dimension count against the table).
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    GF(p)  # refuses a composite modulus before the scan
    n = cone.ambient_rank
    table = cohomology_table(cone, p * bound, p)
    violations = []
    concentration_ok = True
    for md in sorted(table.entries):
        h = table.entries[md]
        if any(x % p for x in md) and any(h):
            concentration_ok = False
            violations.append(
                f"degree {md}: cohomology {h} away from the multiples of {p}"
            )
    sources = 0
    chain_ok = [True] * (n + 1)
    split_ok = [True] * (n + 1)
    iso_ok = [True] * (n + 1)
    src_total = [0] * (n + 1)
    coh_total = [0] * (n + 1)
    for m, sub, outcome in _typed_sources(cone, bound, p):
        sources += 1
        hs = table.entries[tuple(p * x for x in m)]
        for a, (closed, split, induced) in enumerate(outcome):
            src_dim = comb(sub.dim, a)
            src_total[a] += src_dim
            coh_total[a] += hs[a]
            if not closed:
                chain_ok[a] = False
                violations.append(_not_closed(m, a))
            if not split:
                split_ok[a] = False
                violations.append(_not_split(m, a))
            if induced != src_dim or hs[a] != src_dim:
                iso_ok[a] = False
                violations.append(
                    f"degree {m}, a={a}: induced rank {induced} of {src_dim}, "
                    f"cohomology dimension {hs[a]}"
                )
    levels = tuple(
        LevelSummary(a, sources, chain_ok[a], split_ok[a], iso_ok[a], src_total[a], coh_total[a])
        for a in range(n + 1)
    )
    return CartierReport(
        cone.rays,
        p,
        bound,
        p * bound,
        levels,
        concentration_ok,
        len(table.entries),
        tuple(violations),
        table.table_hash(),
    )
