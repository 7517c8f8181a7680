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
degree of that type.  The type of a source degree m is its facet mask, the
set of facets through m, read from the scan of the source box.  For
p > 0, ``<u, pm> = p<u, m>``, so pm lies on exactly the facets through m,
and every coordinate of pm is 0 mod p.  The mask therefore fixes V_m, V_pm
and the complex at pm, which are all the shift matrices and the target
complex depend on.  The shift respects wedge products, so :func:`phi` takes
V_m, V_pm and the change of basis between them once per type and builds
every level as a wedge power of that one map.  Violations are still reported
per source degree, and ``m in V_m`` is still asserted for each one.  The
target box streams by: only the cohomology at its p-divisible degrees stays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import comb

from .complexes import _box_cohomology, _CsvRows, degree_complex
from .forms import _located_degree, degree_subspace, wedge_matrix, wedge_subsets
from .linalg import GF, identity_matrix, mat_mul, rank, zero_matrix

__all__ = [
    "PhiMap",
    "phi",
    "CheckResult",
    "inverse_cartier_generator_check",
    "LevelSummary",
    "CartierReport",
    "verify_isomorphism",
]


@dataclass(frozen=True, eq=False)
class PhiMap:
    """Matrix of the degree shift on one wedge level, in the subset bases.

    ``matrix`` is a tuple of row tuples of residues mod p.
    """

    source_degree: tuple
    target_degree: tuple
    a: int
    matrix: tuple


def _wedge_powers(field, rows, top):
    """Levels 0..top of the wedge powers of the map sending e_i to ``rows[i]``.

    Column I of level a is ``v_{i1} ∧ ... ∧ v_{ia}`` in the lexicographic
    subset bases: the rows' wedge matrices applied to 1, last row first, so
    column I is the wedge matrix of ``v_{i1}`` applied to column ``I[1:]``.
    """
    columns = {(): ((field.one,),)}
    out = []
    for a in range(top + 1):
        if a:
            wedges = [wedge_matrix(field, v, a - 1) for v in rows]
            columns = {
                I: mat_mul(field, wedges[I[0]], columns[I[1:]])
                for I in wedge_subsets(len(rows), a)
            }
        # each column is a one-column matrix; side by side they make the level
        out.append(tuple(zip(*([x for x, in col] for col in columns.values()))))
    return out


def phi(cone, m, p):
    """The degree shift m -> pm on wedge levels 0..n, as honest matrices.

    Level a is the a-th wedge power of one change of basis from V_m to V_pm.
    The two subspaces coincide (face sets are scale invariant), so every
    level is the identity; only invertibility is asserted, which makes the
    map injective on every graded piece.
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
        rows.append(coords)
    out = []
    for a, M in enumerate(_wedge_powers(field, rows, cone.ambient_rank)):
        if rank(field, M) != len(M):
            raise ArithmeticError(f"internal error: degree shift not invertible at {m}, a={a}")
        out.append(PhiMap(m, pm, a, M))
    return tuple(out)


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


def _shift_outcome(cone, m, p):
    """Chain map, splitting and induced rank of the shift at m, level by level.

    Entry a is ``(closed, split, induced)``: whether the target
    differential kills the image of the shift (vacuous at the top level,
    which has no differential), whether the shift matrix is the identity,
    and the rank the shift induces in cohomology at pm.  Everything is
    multiplied out from one :func:`phi` call and the complex at pm.
    """
    field = GF(p)
    n = cone.ambient_rank
    target = degree_complex(cone, tuple(p * x for x in m), p)
    out = []
    for shift in phi(cone, m, p):
        a, M = shift.a, shift.matrix
        closed = a == n or not any(map(any, mat_mul(field, target.differentials[a], M)))
        split = M == identity_matrix(len(M))
        boundaries = target.differentials[a - 1] if a > 0 else zero_matrix(target.dims[0], 0)
        stacked = tuple(r + b for r, b in zip(M, boundaries, strict=True))
        induced = rank(field, stacked) - rank(field, boundaries)
        out.append((closed, split, induced))
    return tuple(out)


def _typed_sources(cone, bound, p):
    """Source degrees of the box, each with V_m and the outcome of its type.

    The type of m is its facet mask from the box scan (see the module
    docstring).  :func:`_shift_outcome` runs once per type and is replayed
    for the other degrees of the type.  V_m is located from the faces the
    mask names, without classifying m again, and the one coordinate solve
    there asserts ``m in V_m`` for every source degree.
    """
    memo = {}
    for m, mask in cone.lattice_points(bound):
        sub = _located_degree(cone._facets_of(mask), m, p)[0]
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = _shift_outcome(cone, m, p)
        yield m, sub, got


def inverse_cartier_generator_check(cone, bound, p):
    """On generators the inverse map reads ``dx^m -> x^((p-1)m) dx^m``.

    The cone enters the identity only through the wedge coordinates of m:
    m in V_m, located from the faces through m, must have the same
    coordinates as m in V_pm, so that ``dx^m`` and the ``dx^m`` factor of
    the shifted form are one basis element.  The faces through m come from
    the scan of the source box and those through pm from classifying pm on
    its own, so a shift that moved V_m would still show.  The monomial part,
    ``x^(pm - m) = x^((p-1)m)``, holds for any integer m and any p; it is a
    property of the printer, tested with it.
    """
    violations = []
    checked = 0
    for m, mask in cone.lattice_points(bound):
        if not any(m):
            continue
        pm = tuple(p * x for x in m)
        w = _located_degree(cone._facets_of(mask), m, p)[1]
        sub_pm = _located_degree(cone.facets_containing(pm), pm, p)[0]
        if w != sub_pm.coordinates_of(m):
            violations.append(f"degree {m}: wedge coordinates drift under the shift")
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
        return json.dumps(asdict(self) | {"passed": self.passed}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        del data["passed"]
        data["rays"] = tuple(map(tuple, data["rays"]))
        data["levels"] = tuple(LevelSummary(**lv) for lv in data["levels"])
        data["violations"] = tuple(data["violations"])
        return cls(**data)

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
        lines.extend(f"  violation: {v}" for v in self.violations)
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
    dimension count against the cohomology at pm).

    The chain-map flag cannot fail on a wrong shift matrix.  The target
    differential at pm is wedging with pm in V_pm, and pm is zero in V_pm
    over GF(p), so that differential is the zero matrix whatever the shift
    is; what the flag can catch is a wrong complex at pm.  A wrong shift
    shows in the splitting flag instead.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    GF(p)  # refuses a composite modulus before the scan
    n = cone.ambient_rank
    rows = _CsvRows(_box_cohomology(cone, p * bound, p), n)
    shifted = {}  # cohomology at the degrees pm, one per source degree m
    violations = []
    for md, h in rows:
        if not any(x % p for x in md):
            shifted[md] = h
        elif any(h):
            violations.append(
                f"degree {md}: cohomology {h} away from the multiples of {p}"
            )
    concentration_ok = not violations
    levels = tuple(LevelSummary(a, 0, True, True, True, 0, 0) for a in range(n + 1))
    for m, sub, outcome in _typed_sources(cone, bound, p):
        hs = shifted[tuple(p * x for x in m)]
        for lv, (closed, split, induced) in zip(levels, outcome):
            a = lv.a
            src_dim = comb(sub.dim, a)
            lv.sources_checked += 1
            lv.source_dim_total += src_dim
            lv.cohomology_dim_total += hs[a]
            if not closed:
                lv.chain_map_ok = False
                violations.append(f"degree {m}, a={a}: shift image is not closed")
            if not split:
                lv.split_ok = False
                violations.append(
                    f"degree {m}, a={a}: projection composed with the shift is not the identity"
                )
            if induced != src_dim or hs[a] != src_dim:
                lv.isomorphism_ok = False
                violations.append(
                    f"degree {m}, a={a}: induced rank {induced} of {src_dim}, "
                    f"cohomology dimension {hs[a]}"
                )
    return CartierReport(
        cone.rays,
        p,
        bound,
        p * bound,
        levels,
        concentration_ok,
        rows.count,
        tuple(violations),
        rows.hexdigest(),
    )
