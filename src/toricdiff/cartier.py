"""Frobenius degree-shift maps and the characteristic-p verification suite.

Over GF(p) the complex in any degree divisible by p has zero differential,
so its cohomology is the whole wedge algebra there, while degrees off the
multiples of p are expected to carry nothing.  The degree shift
``phi: (m' in V_m) x^m -> (m' in V_pm) x^{pm}`` realizes the comparison:
it is a split injection (projection onto the p-divisible degrees splits
it) and induces an isomorphism onto the cohomology of the pushed-forward
complex.  The shift and its splitting are checked as matrices, and the
cohomology of the target box, which the chain-map and induced-rank flags
read, comes from identities proven for the wedge matrices themselves (see
:mod:`toricdiff.complexes`); nothing is assumed from the statements being
verified.

:func:`verify_isomorphism` is the whole check, and it scans each box once:
the p-divisible degrees md of the ``p*bound`` box are the multiples p*m of
the cone points m of the ``bound`` box, in the same order (``<u, m> =
<u, md>/p``), so the two scans run in step.  The shift matrices are built
once per degree type, the facet mask of the source degree m read off its
scan.  For p > 0, ``<u, pm> = p<u, m>``, so pm lies on exactly the facets
through m, and the mask fixes V_m and V_pm, which are all the shift
depends on.  The shift respects wedge products, so :func:`phi` takes V_m,
V_pm and the change of basis between them once per type and builds every
level as a wedge power of that one map.  The other flags are read per
source degree off the cohomology row at pm, violations are reported per
source degree, and ``m in V_m`` is asserted for each one.  The target box
streams by: only its p-divisible degrees and the cohomology there stay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import zip_longest
from math import comb

from .complexes import _box_cohomology, _CsvRows
from .forms import _located_degree, degree_subspace, wedge_matrix, wedge_subsets
from .linalg import GF, identity_matrix, mat_mul, rank

__all__ = [
    "PhiMap",
    "phi",
    "CheckResult",
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
    generator: CheckResult

    @property
    def passed(self):
        return (
            self.concentration_ok
            and not self.violations
            and self.generator.passed
            and all(
                lv.chain_map_ok and lv.split_ok and lv.isomorphism_ok
                for lv in self.levels
            )
        )

    def payload(self):
        """The report as JSON-ready data: its fields, the overall verdict, and
        the generator identity with its own verdict as ``generator_identity``."""
        data = asdict(self) | {"passed": self.passed}
        generator = data.pop("generator")
        del generator["name"]
        return data | {"generator_identity": generator | {"passed": self.generator.passed}}

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

    Three parts, none assumed: (i) every degree in the enlarged box
    ``[-p*bound, p*bound]^n`` that is not a multiple of p
    carries zero cohomology; (ii) for every source degree m in the
    ``bound`` box and every level a, the shift lands on cocycles, its
    composite with the projection is the identity, and the induced map
    into cohomology at pm is bijective (injective by rank, surjective by
    dimension count against the cohomology at pm); (iii) the generator
    identity, reported as ``generator``.

    The chain-map and isomorphism flags read the cohomology row at pm that
    the target scan already holds.  The differential at pm is wedging with
    w, the coordinates of pm in V_pm; it is zero exactly when that row is
    the whole wedge algebra ``C(dim V_m, a)``, and otherwise the complex at
    pm is exact.  So a zero differential makes every level closed, and the
    shift, invertible on every level (:func:`phi` asserts it), induces
    rank ``C(dim V_m, a)``; a nonzero one leaves only the top level closed
    and induces rank 0.  Over GF(p) pm is zero in V_pm, so these flags see
    a wrong complex at pm, not a wrong shift matrix: that shows in the
    splitting flag, the one flag read off :func:`phi`, once per facet mask.

    On generators the inverse map reads ``dx^m -> x^((p-1)m) dx^m``.  For
    m != 0, m in V_m must have the same wedge coordinates as m in V_pm, so
    that ``dx^m`` and the ``dx^m`` factor of the shifted form are one basis
    element.  V_pm comes from classifying pm on its own, not from the mask
    of m, so a shift that moved V_m would still show.  The monomial part
    ``x^((p-1)m)`` holds for any integer m and any p; it is a property of
    the form printer, tested with it.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    GF(p)  # refuses a composite modulus before the scan
    n = cone.ambient_rank
    rows = _CsvRows(_box_cohomology(cone, p * bound, p), n)
    targets = []  # (md, cohomology at md) for every p-divisible md, in scan order
    violations = []
    for md, h in rows:
        if not any(x % p for x in md):
            targets.append((md, h))
        elif any(h):
            violations.append(f"degree {md}: cohomology {h} away from the multiples of {p}")
    concentration_ok = not violations
    levels = tuple(LevelSummary(a, 0, True, True, True, 0, 0) for a in range(n + 1))
    types = {}  # per facet mask: whether each level of the shift is the identity, and C(dim V_m, a)
    drifts = []
    sources = zip_longest(targets, cone.lattice_points(bound), fillvalue=((), None))
    for (pm, hs), (m, mask) in sources:
        if pm != tuple(p * x for x in m):
            raise AssertionError(f"internal error: source {m} does not match target {pm}")
        sub, w = _located_degree(cone._normals_of(mask), m, p)
        kind = types.get(mask)
        if kind is None:
            split = [s.matrix == identity_matrix(len(s.matrix)) for s in phi(cone, m, p)]
            kind = types[mask] = split, tuple(comb(sub.dim, a) for a in range(n + 1))
        split, whole = kind
        zero = hs == whole  # the whole wedge algebra survives: the differential at pm is zero
        for lv, src_dim, split_a in zip(levels, whole, split):
            a = lv.a
            induced = src_dim if zero else 0
            lv.sources_checked += 1
            lv.source_dim_total += src_dim
            lv.cohomology_dim_total += hs[a]
            if not (zero or a == n):
                lv.chain_map_ok = False
                violations.append(f"degree {m}, a={a}: shift image is not closed")
            if not split_a:
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
        if any(m) and w != degree_subspace(cone, pm, p).coordinates_of(m):
            drifts.append(f"degree {m}: wedge coordinates drift under the shift")
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
        # every source degree but the origin, which is always a cone point
        CheckResult("generator identity", len(targets) - 1, tuple(drifts)),
    )
