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

:func:`verify_isomorphism` is the whole check, one loop over both boxes:
the p-divisible degrees md of the ``p*bound`` box are the multiples p*m of
the cone points m of the ``bound`` box, in the same order (``<u, m> =
<u, md>/p``), so each md pulls the next source m and the two scans run in
step.  Each stream locates its degrees through
:func:`toricdiff.forms._located`, once per facet mask.  For p > 0,
``<u, pm> = p<u, m>``, so pm lies on exactly the facets through m, and the
mask fixes V_m and V_pm.  :func:`phi` runs once per mask of m and builds
every level as a wedge power of one change of basis.  The other flags are
read per source degree off the cohomology row at pm, and ``m in V_m`` is
asserted for each one.  Neither box is held: each degree is read once, as
it streams by, and only the shift outcomes per facet mask stay.
"""

from __future__ import annotations

from .complexes import _CsvRows, _degree_cohomology
from .forms import _located, degree_subspace, wedge_matrix, wedge_subsets
from .linalg import GF, _integer, identity_matrix, mat_mul, rank

__all__ = [
    "phi",
    "verify_isomorphism",
    "report_text",
    "generator_text",
]


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
    return tuple(out)


def phi(cone, m, p):
    """The degree shift m -> pm on wedge levels 0..n, as honest matrices.

    Returns the n+1 level matrices, each a tuple of row tuples of residues
    mod p in the subset bases; level a is the a-th wedge power of one
    change of basis from V_m to V_pm.  The two subspaces coincide (face
    sets are scale invariant), so every level is the identity; only
    invertibility is asserted, which makes the map injective on every
    graded piece.
    """
    field = GF(p)
    p = field.characteristic
    m = cone._point(m)
    pm = tuple(p * x for x in m)
    sub_m = degree_subspace(cone, m, p)
    sub_pm = degree_subspace(cone, pm, p)
    if sub_m != sub_pm:
        raise ArithmeticError(
            f"internal error: subspaces at {m} and {pm} disagree, the degree shift is broken"
        )
    # sub_m == sub_pm, so every basis row has coordinates in sub_pm
    rows = [sub_pm.coordinates_of(row) for row in sub_m.basis]
    levels = _wedge_powers(field, rows, cone.ambient_rank)
    for a, M in enumerate(levels):
        if rank(field, M) != len(M):
            raise ArithmeticError(f"internal error: degree shift not invertible at {m}, a={a}")
    return levels


def report_text(report):
    """The text of a :func:`verify_isomorphism` report: one line per level, the
    concentration flag, each violation, and the overall verdict."""
    lines = [
        f"cartier verification: p={report['p']}, source bound={report['bound']} "
        f"(targets scanned to {report['target_bound']})"
    ]
    for lv in report["levels"]:
        lines.append(
            f"  a={lv['a']}: sources={lv['sources_checked']}, "
            f"chain map {'PASS' if lv['chain_map_ok'] else 'FAIL'}, "
            f"splitting {'PASS' if lv['split_ok'] else 'FAIL'}, "
            f"isomorphism {'PASS' if lv['isomorphism_ok'] else 'FAIL'} "
            f"(source dim {lv['source_dim_total']}, cohomology dim {lv['cohomology_dim_total']})"
        )
    lines.append(
        f"  off-multiple degrees carry no cohomology: "
        f"{'PASS' if report['concentration_ok'] else 'FAIL'} "
        f"({report['target_degrees']} target degrees)"
    )
    lines.extend(f"  violation: {v}" for v in report["violations"])
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)


def generator_text(report):
    """The text of the generator identity of a :func:`verify_isomorphism` report."""
    generator = report["generator_identity"]
    state = "PASS" if generator["passed"] else "FAIL"
    lines = [f"generator identity: checked {generator['checked']} degrees: {state}"]
    lines.extend(f"  {v}" for v in generator["violations"])
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
    identity, reported as ``generator_identity``.

    Returns the JSON document of the check, a dict: ``rays``, ``p``,
    ``bound``, ``target_bound``, one ``levels`` entry per wedge level a
    (``sources_checked``, the ``chain_map_ok``, ``split_ok`` and
    ``isomorphism_ok`` flags, ``source_dim_total`` and
    ``cohomology_dim_total``), ``concentration_ok``, ``target_degrees``,
    ``violations`` (of concentration first, then per source in source
    order), ``table_hash``, ``passed`` and ``generator_identity``
    (``checked``, ``violations``, ``passed``).

    One loop reads the target box and, at each p-divisible target pm, the
    next source m.  The chain-map and isomorphism flags read the cohomology
    row at pm as the target scan passes it.  The differential at pm is
    wedging with w, the coordinates of pm in V_pm; it is zero exactly when
    that row is the whole wedge algebra ``C(dim V_m, a)``, and otherwise
    the complex at pm is exact.  So a zero differential makes every level closed, and the
    shift, invertible on every level (:func:`phi` asserts it), induces
    rank ``C(dim V_m, a)``; a nonzero one leaves only the top level closed
    and induces rank 0.  Over GF(p) pm is zero in V_pm, so these flags see
    a wrong complex at pm, not a wrong shift matrix: that shows in the
    splitting flag, the one flag read off :func:`phi`, once per facet mask.

    On generators the inverse map reads ``dx^m -> x^((p-1)m) dx^m``.  For
    m != 0, m in V_m must have the same wedge coordinates as m in V_pm, so
    that ``dx^m`` and the ``dx^m`` factor of the shifted form are one basis
    element.  V_pm is located from the facet mask that the target scan
    finds for pm on its own, not from the mask of m, so a shift that moved
    V_m would still show.  The monomial part ``x^((p-1)m)`` holds for any
    integer m and any p; it is a property of the form printer, tested with
    it.
    """
    bound = _integer(bound, "the bound must be an integer")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    p = GF(p).characteristic  # refuses a composite modulus before the scan
    n = cone.ambient_rank
    targets = _located(cone, cone.lattice_points(p * bound), p)
    sources = _located(cone, cone.lattice_points(bound), p)
    rows = _CsvRows(((md, _degree_cohomology(w, whole), sub) for md, _, sub, w, whole in targets), n)
    levels = tuple(
        {
            "a": a,
            "sources_checked": 0,
            "chain_map_ok": True,
            "split_ok": True,
            "isomorphism_ok": True,
            "source_dim_total": 0,
            "cohomology_dim_total": 0,
        }
        for a in range(n + 1)
    )
    types = {}  # per facet mask: whether each level of the shift is the identity
    concentration, violations, drifts = [], [], []
    for pm, hs, sub_pm in rows:
        if any(x % p for x in pm):
            if any(hs):
                concentration.append(f"degree {pm}: cohomology {hs} away from the multiples of {p}")
            continue
        m, mask, _, w, whole = next(sources, (None,) * 5)  # m = pm / p, or a bug
        if m is None or pm != tuple(p * x for x in m):
            raise AssertionError(f"internal error: source {m} does not match target {pm}")
        split = types.get(mask)
        if split is None:  # a shift without exactly n+1 levels splits on none
            shift = phi(cone, m, p)
            ok = len(shift) == n + 1
            split = types[mask] = [ok and shift[a] == identity_matrix(c) for a, c in enumerate(whole)]
        zero = hs == whole  # the whole wedge algebra survives: the differential at pm is zero
        for a, src_dim in enumerate(whole):
            lv, induced = levels[a], src_dim if zero else 0
            lv["sources_checked"] += 1
            lv["source_dim_total"] += src_dim
            lv["cohomology_dim_total"] += hs[a]
            if not (zero or a == n):
                lv["chain_map_ok"] = False
                violations.append(f"degree {m}, a={a}: shift image is not closed")
            if not split[a]:
                lv["split_ok"] = False
                violations.append(
                    f"degree {m}, a={a}: projection composed with the shift is not the identity"
                )
            if induced != src_dim or hs[a] != src_dim:
                lv["isomorphism_ok"] = False
                violations.append(
                    f"degree {m}, a={a}: induced rank {induced} of {src_dim}, "
                    f"cohomology dimension {hs[a]}"
                )
        if any(m) and w != sub_pm.coordinates_of(m):
            drifts.append(f"degree {m}: wedge coordinates drift under the shift")
    if next(sources, None):
        raise AssertionError("internal error: the source box does not match the targets")
    checked = levels[0]["sources_checked"] - 1  # every source but the origin, always a cone point
    generator = {"checked": checked, "violations": tuple(drifts), "passed": not drifts}
    return {
        "rays": cone.rays,
        "p": p,
        "bound": bound,
        "target_bound": p * bound,
        "levels": levels,
        "concentration_ok": not concentration,
        "target_degrees": rows.count,
        "violations": tuple(concentration + violations),
        "table_hash": rows.hexdigest(),
        # a failing level flag always adds a violation, so the flags need no second look
        "passed": not concentration and not violations and not drifts,
        "generator_identity": generator,
    }
