import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricdiff.cones as cones_module
import toricdiff.linalg as linalg
from toricdiff.cones import Cone, NotInConeError, NotPointedError
from toricdiff.linalg import saturate

from tests.conftest import INTEGER_INPUTS, check_integer_input, cone_points


class TestDuality:
    def test_quadric_dual(self):
        c = Cone([(0, 1), (2, -1)])
        assert c.dual.rays == ((1, 0), (1, 2))

    def test_orthant_self_dual(self):
        c = Cone([(1, 0), (0, 1)])
        assert c.dual.rays == c.rays

    def test_bidual_is_identity(self):
        for rays in ([(0, 1), (2, -1)], [(1, 0), (1, 2), (1, 1)], [(2, 1), (1, 3)]):
            c = Cone(rays)
            assert c.dual.dual == c
            assert c.dual.dual is c

    def test_square_cone_dual(self):
        c = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert c.dual.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0))

    def test_halfplane_dual_is_a_ray(self):
        c = Cone([(1, 0), (-1, 0), (0, 1)])
        assert c.dual.rays == ((0, 1),)
        assert not c.has_vertex()
        assert c.dual.has_vertex()

    def test_zero_cone_and_full_space(self):
        z = Cone([], ambient_rank=2)
        assert z.rays == ()
        assert z.dual.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
        assert z.contains((0, 0)) and not z.contains((0, 1))
        assert z.dual.contains((-5, 7))


class TestCanonicalization:
    def test_redundant_and_scaled_generators(self):
        messy = Cone([(2, 0), (1, 1), (0, 3), (1, 2)])
        clean = Cone([(1, 0), (0, 1)])
        assert messy == clean
        assert hash(messy) == hash(clean)

    def test_duplicates_dropped(self):
        assert Cone([(1, 0), (2, 0), (0, 1)]).rays == ((0, 1), (1, 0))

    def test_lineality_generators_come_in_pairs(self):
        c = Cone([(1, 0), (-1, 0), (0, 1)])
        assert (1, 0) in c.rays and (-1, 0) in c.rays and (0, 1) in c.rays

    @pytest.mark.parametrize("rank", [-1, 0])
    def test_rejects_an_ambient_rank_below_one(self, rank):
        with pytest.raises(ValueError, match="ambient rank must be at least 1"):
            Cone([], ambient_rank=rank)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Cone([(1, 0), (1,)])
        with pytest.raises(ValueError):
            Cone([(0.5, 1)])
        with pytest.raises(ValueError):
            Cone([])
        with pytest.raises(ValueError):
            Cone([(True, False)])

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    def test_ray_entries_follow_the_integer_rule(self, x, accepted):
        check_integer_input(lambda x: Cone([(x, 0), (0, 1)]), x, accepted)

    # None is the default ambient rank, the length of the rays
    @pytest.mark.parametrize("x, accepted", [p for p in INTEGER_INPUTS if p.id != "None"])
    def test_ambient_rank_follows_the_integer_rule(self, x, accepted):
        check_integer_input(lambda x: Cone([], ambient_rank=x), x, accepted)


class TestMembership:
    def test_quadric_exponents(self):
        d = Cone([(0, 1), (2, -1)]).dual
        assert d.contains((1, 0)) and d.contains((1, 2)) and d.contains((1, 1))
        assert not d.contains((0, 1))
        assert not d.contains((-1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Cone([(1, 0), (0, 1)]).contains((1, 0, 0))

    def test_points_off_the_lattice_are_refused(self):
        # int() would read these as (0, 0) and (0, 2)
        orthant = Cone([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="0.5"):
            orthant.contains((0.5, -0.9))
        with pytest.raises(ValueError, match="0.7"):
            orthant.facets_containing((0.7, 2))
        assert orthant.contains((1.0, 2)) and orthant.facets_containing((0.0, 2))

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: Cone([(1, 0), (0, 1)]).contains((x, 0)),
            lambda x: Cone([(1, 0), (0, 1)]).facets_containing((x, 0)),
        ],
        ids=["contains", "facets_containing"],
    )
    def test_points_follow_the_integer_rule(self, call, x, accepted):
        check_integer_input(call, x, accepted)


class TestFacets:
    def test_orthant_has_n_facets(self):
        for n in (2, 3, 4):
            rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            assert len(Cone(rays).facets) == n

    def test_quadric_facet_data(self):
        d = Cone([(0, 1), (2, -1)]).dual
        facets = d.facets
        assert [f.normal for f in facets] == [(0, 1), (2, -1)]
        assert facets[0].span == saturate([(1, 0)])
        assert facets[1].span == saturate([(1, 2)])

    def test_facet_spans_are_saturated(self):
        d = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]).dual
        for f in d.facets:
            assert saturate(f.span.basis, 3) == f.span
            assert f.span.rank == 2

    def test_not_full_dimensional_refused(self):
        ray = Cone([(0, 1)])  # a single ray in the plane
        with pytest.raises(NotPointedError):
            ray.facets

    def test_facets_containing(self):
        d = Cone([(0, 1), (2, -1)]).dual
        assert [f.normal for f in d.facets_containing((1, 0))] == [(0, 1)]
        assert [f.normal for f in d.facets_containing((1, 2))] == [(2, -1)]
        assert d.facets_containing((1, 1)) == ()
        assert len(d.facets_containing((0, 0))) == 2

    def test_facets_containing_outside(self):
        d = Cone([(0, 1), (2, -1)]).dual
        with pytest.raises(NotInConeError):
            d.facets_containing((0, 1))


def traced_scan_peak(cone, bound):
    """Peak of the memory traced while ``cone.lattice_points(bound)`` is consumed."""
    tracemalloc.start()
    try:
        for _ in cone.lattice_points(bound):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_box_in_rank_6():
    # one slab of the bound-6 box would hold 13^5 points if it spanned every
    # coordinate but the first; slabs of at most _MAX_SLAB_ENTRIES entries
    # keep the traced peak of the scan near that of the bound-3 box
    orthant = Cone([tuple(int(i == j) for j in range(6)) for i in range(6)]).dual
    assert traced_scan_peak(orthant, 6) <= 2 * traced_scan_peak(orthant, 3)


def test_scan_memory_does_not_grow_with_the_box_for_many_facets():
    # each point carries 41 facet values: a slab of all but the first
    # coordinate would hold 81^2 points of 44 entries at bound 40, and a
    # slab sized by entries holds 81 of them
    cone = Cone([(i, i * i, 1) for i in range(-20, 21)])
    assert len(cone.dual.rays) == 41
    assert traced_scan_peak(cone, 40) <= 2 * traced_scan_peak(cone, 10)


def test_scan_memory_does_not_grow_with_the_box_in_rank_1():
    # in rank 1 the prefix line is the whole box, so it is computed in arrays
    # of at most _MAX_SLAB_ENTRIES // (n + k) values: 2^15 on the line, which
    # has no facets and keeps every point.  The bound-2*10^4 box (40,001
    # points) already fills one array; a bound-10^3 box (2,001) would not
    line = Cone([(1,), (-1,)])
    assert traced_scan_peak(line, 10**5) <= 2 * traced_scan_peak(line, 2 * 10**4)


class TestLatticePoints:
    def test_quadric_small_box(self):
        d = Cone([(0, 1), (2, -1)]).dual
        assert cone_points(d, 1) == ((0, 0), (1, 0), (1, 1))

    def test_origin_always_present(self):
        for rays in ([(1, 0), (0, 1)], [(0, 1), (2, -1)], [(1, 2), (3, 1)]):
            assert (0, 0) in cone_points(Cone(rays).dual, 0)

    def test_lex_sorted(self):
        # the streamed table hashes rely on the scan order being the sorted order
        for cone in (
            Cone([(1, 0), (0, 1)]).dual,
            Cone([(1, 0), (-1, 0), (0, 1)]),
            Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]).dual,
            Cone([(1,), (-1,)]),
        ):
            pts = cone_points(cone, 3)
            assert pts == tuple(sorted(pts))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Cone([(1, 0), (0, 1)]).lattice_points(-1)

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    def test_bound_follows_the_integer_rule(self, x, accepted):
        check_integer_input(lambda x: list(Cone([(1, 0), (0, 1)]).lattice_points(x)), x, accepted)

    def test_halfplane_points(self):
        # exponent cone with a line: every degree on the horizontal axis
        c = Cone([(1, 0), (-1, 0), (0, 1)])
        pts = cone_points(c, 1)
        assert pts == ((-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1))


HUGE = Cone([(1, 0), (1, 10**20)])  # a facet normal (10**20, -1) overflows int64


@st.composite
def scanned_cones(draw):
    """Small cones of either kind: with or without lines, full dimensional or not."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    rays = draw(st.lists(vec, min_size=1, max_size=n + 2))
    cone = Cone(rays)
    return cone.dual if draw(st.booleans()) else cone


class TestScanMatchesDefinition:
    @settings(max_examples=80, deadline=None)
    @given(scanned_cones(), st.integers(0, 3))
    @example(Cone([(1, 0), (-1, 0), (0, 1)]), 2)  # a cone with a line
    @example(Cone([(1, 1)], ambient_rank=2), 2)  # not full dimensional
    @example(Cone([(1, 0), (0, 1)]), 0)
    @example(HUGE, 3)
    @example(Cone([(i, i * i, 1) for i in range(-32, 32)]), 1)  # 64 facets: masks need bit 63
    @example(Cone([(i, i * i, 1) for i in range(-32, 32)]), 11)  # slabs of 23 points, not 529
    @example(Cone([tuple(int(i == j) for j in range(4)) for i in range(4)]), 2)  # x_0 < 0 is pruned
    @example(Cone([(1,)]), 2)  # rank 1: the points of a line array form one slab
    @example(Cone([(1,)]), 10**4)  # a rank-1 line of 20,001 points spans several arrays
    def test_points_and_masks(self, cone, bound):
        normals = cone.dual.rays
        box = itertools.product(range(-bound, bound + 1), repeat=cone.ambient_rank)
        want = tuple(v for v in box if all(sum(a * b for a, b in zip(u, v)) >= 0 for u in normals))
        scanned = tuple(cone.lattice_points(bound))
        assert tuple(v for v, _ in scanned) == want
        for v, mask in scanned:
            assert cone.contains(v)
            on = [i for i, u in enumerate(normals) if sum(a * b for a, b in zip(u, v)) == 0]
            assert mask == sum(1 << i for i in on) == cone._point_mask(v)
            if cone.is_full_dimensional():
                assert [f.index for f in cone.facets_containing(v)] == on

    def test_prefix_slabs_keep_the_order(self, monkeypatch):
        # slabs of at most 40 entries hold 5 points of 6 or 8 entries, so they
        # step two or three leading coordinates; at 13 entries a slab is one
        # point, and the lines are computed one or two values at a time
        cones = (
            Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]).dual,
            Cone([tuple(int(i == j) for j in range(4)) for i in range(3)] + [(0, 0, 0, -1)]),
        )
        want = [tuple(cone.lattice_points(2)) for cone in cones]
        for entries in (40, 13):
            monkeypatch.setattr(cones_module, "_MAX_SLAB_ENTRIES", entries)
            assert [tuple(cone.lattice_points(2)) for cone in cones] == want

    def test_huge_normals_take_the_exact_path(self):
        width = max(sum(map(abs, u)) for u in HUGE.dual.rays)
        assert width >= 2**62  # too wide for int64 even at bound 1
        assert tuple(HUGE.lattice_points(1)) == (((0, 0), 3), ((1, 0), 1), ((1, 1), 0))
        assert HUGE.contains((10**30, 1)) and not HUGE.contains((0, 1))


def _det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(row) for row in rows]
    k = len(m)
    sign, prev = 1, 1
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[-1][-1]


def _rank(rows):
    """Rank over QQ by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _brute_force_facets(rays, n):
    """Facet normals of a full dimensional pointed cone, by brute force.

    Every facet contains n - 1 independent rays, so the facet normals are the
    primitive normals of the rank n - 1 subsets of the rays that are
    nonnegative on every ray.  The normal of a subset has the signed maximal
    minors of its rows as entries.
    """
    out = set()
    for subset in itertools.combinations(rays, n - 1):
        normal = [
            (-1) ** i * _det([row[:i] + row[i + 1 :] for row in subset]) for i in range(n)
        ]
        g = gcd(*normal)
        if not g:
            continue
        normal = tuple(x // g for x in normal)
        for sign in (1, -1):
            u = tuple(sign * x for x in normal)
            if all(_dot(u, v) >= 0 for v in rays):
                out.add(u)
    return out


def _random_pointed_cone(rng, n, count):
    """Distinct primitive rays in the half space x_0 > 0, spanning ZZ^n."""
    while True:
        rays = set()
        while len(rays) < count:
            v = (rng.randint(1, 3),) + tuple(rng.randint(-2, 2) for _ in range(n - 1))
            g = gcd(*v)
            rays.add(tuple(x // g for x in v))
        rays = sorted(rays)
        if _rank(rays) == n:
            return rays


# cones over a square, a 3-cube, an octahedron and a hexagon, and a half-plane,
# with the number of rays of their duals
DEGENERATE_CONES = {
    "square-3d": ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 4),
    "cube-4d": ([v + (1,) for v in itertools.product((-1, 1), repeat=3)], 6),
    "octahedron-4d": (
        [tuple(s * (i == j) for j in range(3)) + (1,) for i in range(3) for s in (1, -1)],
        8,
    ),
    "hexagon-3d": ([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)], 6),
    "halfplane": ([(1, 0), (-1, 0), (0, 1)], 1),
}


class TestDoubleDescriptionAgainstBruteForce:
    """The double description against an enumeration of ray subsets.

    A wrong adjacency test keeps rays that are not extreme, or drops some
    that are, and this changes the dual.  On the random cones and the cones
    over polytopes alike, many pairs of rays share the r - 2 tight rows an
    edge needs and are still refused, by a third ray tight on all of them.
    """

    def _check(self, rays, n):
        cone = Cone(rays)
        normals = _brute_force_facets(rays, n)
        assert set(cone.dual.rays) == normals, rays
        extreme = {v for v in rays if _rank([u for u in normals if _dot(u, v) == 0]) == n - 1}
        assert set(cone.rays) == extreme, rays

    @pytest.mark.parametrize("n, cones", [(4, 4), (5, 4), (6, 12)])
    def test_rays_and_facets(self, n, cones):
        rng = random.Random(20 + n)
        for _ in range(cones):
            self._check(_random_pointed_cone(rng, n, rng.randint(8, 11)), n)

    @pytest.mark.parametrize("name", ["cube-4d", "octahedron-4d", "hexagon-3d"])
    def test_cones_over_polytopes(self, name):
        rays, _ = DEGENERATE_CONES[name]
        self._check(rays, len(rays[0]))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_CONES))
    def test_building_a_cone_takes_no_rank(self, name, monkeypatch):
        # the incidence masks decide every edge, so no rank is taken
        def no_rank(rows):
            raise AssertionError("the double description took a rank")

        monkeypatch.setattr(linalg, "_rank_bareiss", no_rank)
        rays, dual_rays = DEGENERATE_CONES[name]
        cone = Cone(rays)
        assert set(cone.rays) == set(rays) and len(cone.dual.rays) == dual_rays


class TestPickling:
    def test_cone_round_trips(self):
        import pickle

        c = Cone([(0, 1), (2, -1)]).dual
        c.facets
        again = pickle.loads(pickle.dumps(c))
        assert again == c
        assert again.dual == c.dual
