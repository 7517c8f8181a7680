import gc
import itertools
import json
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import toricdiff.cartier as cartier
import toricdiff.complexes as complexes
import toricdiff.linalg as linalg
from toricdiff.cartier import generator_text, phi, report_text, verify_isomorphism
from toricdiff.complexes import DegreeComplex, cohomology_table
from toricdiff.cones import Cone, NotInConeError
from toricdiff.forms import degree_subspace
from toricdiff.linalg import GF

from tests.conftest import INTEGER_INPUTS, check_integer_input, cone_points, load_exponent_cone


@pytest.fixture(scope="module")
def quadric():
    return Cone([(0, 1), (2, -1)]).dual


@pytest.fixture(scope="module")
def orthant():
    return Cone([(1, 0), (0, 1)]).dual


class TestPhi:
    def test_shapes_and_degrees(self, quadric):
        # one level per wedge power of k^2, each a tuple of row tuples
        levels = phi(quadric, (1, 1), 2)
        assert len(levels) == 3
        assert [len(M) for M in levels] == [1, 2, 1]
        assert all(type(M) is tuple and all(type(row) is tuple for row in M) for M in levels)
        assert levels[1] == ((1, 0), (0, 1))

    def test_identity_in_matching_bases(self, quadric, orthant):
        for cone in (quadric, orthant):
            for m in cone_points(cone, 2):
                sub = degree_subspace(cone, m, 3)
                for M in phi(cone, m, 3):
                    k = len(M)
                    assert all(
                        M[i][j] == (1 if i == j else 0)
                        for i in range(k)
                        for j in range(k)
                    )
                    assert sub == degree_subspace(cone, tuple(3 * x for x in m), 3)

    def test_rejects_composite_modulus(self, quadric):
        with pytest.raises(ValueError):
            phi(quadric, (1, 1), 6)

    def test_rejects_outside_degrees(self, quadric):
        with pytest.raises(NotInConeError):
            phi(quadric, (0, 1), 2)

    @pytest.mark.parametrize("m", [(1.5, 0), (1, Fraction(1, 2))], ids=["float", "fraction"])
    def test_rejects_non_integral_degrees(self, orthant, m):
        # not truncated to the shift at (1, 0); integral values of any type still pass
        with pytest.raises(ValueError, match="must be integers"):
            phi(orthant, m, 2)
        assert phi(orthant, (2.0, Fraction(1)), 2) == phi(orthant, (2, 1), 2)

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call", [lambda c, x: phi(c, (x, 0), 2), lambda c, x: phi(c, (1, 0), x)], ids=["degree", "p"]
    )
    def test_degree_and_p_follow_the_integer_rule(self, orthant, call, x, accepted):
        check_integer_input(lambda x: call(orthant, x), x, accepted)


class TestWedgePowers:
    """Level a of the shift is the a-th wedge power of the change of basis.

    ``phi`` only meets identity changes of basis, so the wedge powers are
    checked here on random matrices, against minors written out as Leibniz
    sums: the entry in row J, column I is the minor on rows I, columns J.
    """

    @staticmethod
    def minor(rows, I, J, p):
        total = 0
        for perm in itertools.permutations(range(len(I))):
            inversions = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
            term = (-1) ** inversions
            for k, l in enumerate(perm):
                term *= rows[I[k]][J[l]]
            total += term
        return total % p

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_levels_are_minors(self, p):
        rng = random.Random(p)
        for _ in range(30):
            d = rng.randint(0, 4)
            rows = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)]
            levels = cartier._wedge_powers(GF(p), rows, d + 1)
            assert len(levels) == d + 2
            for a, M in enumerate(levels):
                subsets = list(itertools.combinations(range(d), a))
                assert len(M) == len(subsets) and all(len(row) == len(subsets) for row in M)
                for ci, I in enumerate(subsets):
                    for ri, J in enumerate(subsets):
                        assert M[ri][ci] == self.minor(rows, I, J, p), (rows, a, I, J)


class TestChecks:
    @pytest.mark.parametrize("p", [2, 3])
    def test_chain_map(self, quadric, p):
        report = verify_isomorphism(quadric, 2, p)
        sources = len(cone_points(quadric, 2))
        assert [lv["sources_checked"] for lv in report["levels"]] == [sources] * 3
        assert all(lv["chain_map_ok"] for lv in report["levels"])
        assert report["passed"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_split(self, orthant, p):
        report = verify_isomorphism(orthant, 2, p)
        assert all(lv["split_ok"] for lv in report["levels"])
        assert report["passed"]

    def test_generator_identity_text(self, quadric):
        report = verify_isomorphism(quadric, 2, 2)
        result = report["generator_identity"]
        assert result["passed"]
        # the origin is skipped: d of a constant is zero
        assert result["checked"] == len(cone_points(quadric, 2)) - 1
        assert generator_text(report) == f"generator identity: checked {result['checked']} degrees: PASS"


class TestVerifyIsomorphism:
    def test_quadric_p2_report(self, quadric):
        report = verify_isomorphism(quadric, 2, 2)
        assert report["passed"]
        assert report["p"] == 2
        assert report["bound"] == 2
        assert report["target_bound"] == 4
        assert len(report["levels"]) == 3
        for lv in report["levels"]:
            assert lv["chain_map_ok"] and lv["split_ok"] and lv["isomorphism_ok"]
            assert lv["source_dim_total"] == lv["cohomology_dim_total"]
        assert report["concentration_ok"]
        assert report["violations"] == ()

    def test_concentration_explicit(self, quadric):
        table = cohomology_table(quadric, 4, 2)
        for m, h in table.entries.items():
            if any(x % 2 for x in m):
                assert h == (0, 0, 0)

    def test_each_source_degree_gets_the_outcome_of_its_type(self, corpus, monkeypatch):
        # the shift matrices are built once per facet mask, at a source degree
        # of that mask; on this non-simplicial cone a wrong key would replay
        # the splitting of a type with the wrong V_m dimensions
        cone = corpus["square-3d"]
        real = cartier.phi
        masks = []

        def counted_phi(cone_, m, p):
            masks.append(cone._mask_of(m))
            return real(cone_, m, p)

        monkeypatch.setattr(cartier, "phi", counted_phi)
        assert verify_isomorphism(cone, 2, 3)["passed"]
        assert sorted(masks) == sorted({cone._mask_of(m) for m in cone_points(cone, 2)})

    def test_ranks_only_the_shift_and_builds_no_degree_complex(self, corpus, monkeypatch):
        # the cohomology at pm is read off the target scan, so the only ranks
        # are phi's invertibility checks, one per level and facet mask
        cone = corpus["square-3d"]
        real_phi, real_rank = cartier.phi, linalg.rank
        inside, ranked, built = [], [], []

        def tracked_phi(cone_, m, p):
            inside.append(cone._mask_of(m))
            try:
                return real_phi(cone_, m, p)
            finally:
                inside.pop()

        def tracked_rank(field, M):
            ranked.append(inside[-1] if inside else None)
            return real_rank(field, M)

        def no_complex(*args):
            built.append(args[0])
            return DegreeComplex(*args)

        monkeypatch.setattr(cartier, "phi", tracked_phi)
        for module in (linalg, cartier, complexes):
            monkeypatch.setattr(module, "rank", tracked_rank)
        monkeypatch.setattr(complexes, "DegreeComplex", no_complex)
        assert verify_isomorphism(cone, 2, 3)["passed"]
        assert built == []
        n = cone.ambient_rank
        masks = {cone._mask_of(m) for m in cone_points(cone, 2)}
        assert Counter(ranked) == {mask: n + 1 for mask in masks}

    def test_scans_each_box_once(self, quadric, monkeypatch):
        # the p*B box of targets streams first, then the B box of sources is
        # zipped with its p-divisible degrees
        sources = len(cone_points(quadric, 2))
        real = Cone.lattice_points
        bounds = []

        def lattice_points(self, bound):
            bounds.append(bound)
            return real(self, bound)

        monkeypatch.setattr(Cone, "lattice_points", lattice_points)
        report = verify_isomorphism(quadric, 2, 3)
        assert bounds == [6, 2]
        assert report["passed"]
        assert [lv["sources_checked"] for lv in report["levels"]] == [sources] * 3

    @pytest.mark.parametrize("dropped", [0, -1])
    def test_misaligned_source_stream_is_an_internal_error(self, quadric, monkeypatch, dropped):
        # a source stream out of step with the p-divisible targets is a bug,
        # never bad input (a ValueError would read as exit 2 on the CLI);
        # without its first point the streams differ in a pair, without its
        # last point in their lengths
        real = Cone.lattice_points

        def lattice_points(self, bound):
            points = list(real(self, bound))
            if bound == 2:
                del points[dropped]
            return iter(points)

        monkeypatch.setattr(Cone, "lattice_points", lattice_points)
        with pytest.raises(AssertionError, match="does not match"):
            verify_isomorphism(quadric, 2, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hash_is_the_table_hash_of_the_target_box(self, corpus, p):
        # the target box is hashed as it streams by, never held as a table
        for name, cone in corpus.items():
            report = verify_isomorphism(cone, 1, p)
            table = cohomology_table(cone, p, p)
            assert report["table_hash"] == table.table_hash(), name
            assert report["target_degrees"] == len(table.entries)

    def test_json_round_trip(self, orthant):
        report = verify_isomorphism(orthant, 2, 3)
        data = json.loads(json.dumps(report))
        assert data.pop("passed") is True
        assert data.pop("rays") == [list(r) for r in report["rays"]]
        assert data.pop("levels") == list(report["levels"])
        assert data.pop("violations") == []
        generator = report["generator_identity"]
        assert data.pop("generator_identity") == {
            "checked": generator["checked"],
            "passed": generator["passed"],
            "violations": list(generator["violations"]),
        }
        assert data == {key: report[key] for key in data}
        assert sorted(data) == ["bound", "concentration_ok", "p", "table_hash", "target_bound", "target_degrees"]

    def test_text_format(self, orthant):
        text = report_text(verify_isomorphism(orthant, 1, 2))
        assert "overall: PASS" in text
        assert "a=0" in text and "a=2" in text

    def test_bound_validation(self, orthant):
        with pytest.raises(ValueError):
            verify_isomorphism(orthant, 0, 2)

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [lambda c, x: verify_isomorphism(c, x, 2), lambda c, x: verify_isomorphism(c, 1, x)],
        ids=["bound", "p"],
    )
    def test_bound_and_p_follow_the_integer_rule(self, quadric, call, x, accepted):
        check_integer_input(lambda x: call(quadric, x), x, accepted)

    def test_level_dim_bookkeeping(self, orthant):
        # over the smooth chart the source dims are binomial sums driven by
        # how many coordinates of m vanish
        report = verify_isomorphism(orthant, 2, 2)
        by_a = {lv["a"]: lv["source_dim_total"] for lv in report["levels"]}
        sources = cone_points(orthant, 2)
        from math import comb

        for a in range(3):
            expected = sum(
                comb(sum(1 for x in m if x != 0), a) for m in sources
            )
            assert by_a[a] == expected


def test_verification_keeps_no_cone_alive():
    # the V_m cache is keyed on the facet normals as int tuples, so a dropped
    # cone and its box scans go; the rays are unlike any other test's, since
    # a cache keyed on equal cones would hold the first one it met and this
    # one would still go
    cone = Cone([(1, 0), (4, 9)])
    ref = weakref.ref(cone)
    assert verify_isomorphism(cone, 2, 2)["passed"]
    del cone
    gc.collect()
    assert ref() is None


def test_memory_does_not_grow_with_the_box():
    # the target box streams by: only the per-facet-mask shift outcomes of
    # the source box and the cohomology at the p-divisible degrees stay, so
    # a box with over 4x the cone points must not raise the traced peak by
    # more than the slack
    fields = {"ambient_rank", "_lineality", "rays", "dual", "_facets"}

    def traced_peak(bound):
        cone = load_exponent_cone("square-3d")
        tracemalloc.start()
        try:
            assert verify_isomorphism(cone, bound, 2)["passed"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no box data stays on the cone or its dual after the scans
        assert set(cone.__dict__) <= fields and set(cone.dual.__dict__) <= fields
        return peak

    small, large = 2, 4
    cone = load_exponent_cone("square-3d")
    assert len(cone_points(cone, 2 * large)) >= 4 * len(cone_points(cone, 2 * small))
    traced_peak(large)  # fills the bounded V_m caches and the proven dimensions
    assert traced_peak(large) <= 1.25 * traced_peak(small) + 64 * 1024


class TestNegativeControls:
    """Injected defects on one degree type must fail once per source degree.

    On the orthant with p=3 and bound 3 the nine interior source degrees
    (1..3)^2 share one type (no facets through m or pm, pm = 0 mod 3), so
    the per-type memo computes the defect once and must replay it nine times.
    """

    P, BOUND = 3, 3
    INTERIOR = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]

    def test_non_identity_shift_fails_split(self, orthant, monkeypatch):
        calls = []

        def broken_phi(cone, m, p):
            got = phi(cone, m, p)
            if cone.facets_containing(m) == ():
                calls.append(m)
                M = [list(row) for row in got[1]]
                M[0][1] = 1  # invertible, not the identity
                got = (got[0], tuple(map(tuple, M))) + got[2:]
            return got

        monkeypatch.setattr(cartier, "phi", broken_phi)
        wording = "a=1: projection composed with the shift is not the identity"
        report = verify_isomorphism(orthant, self.BOUND, self.P)
        assert not report["passed"]
        assert [lv["split_ok"] for lv in report["levels"]] == [True, False, True]
        assert report["violations"] == tuple(f"degree {m}, {wording}" for m in self.INTERIOR)
        data = json.loads(json.dumps(report))
        assert data["passed"] is False
        assert data["violations"] == list(report["violations"])
        # computed in one pass, replayed for each of the nine degrees
        assert len(calls) == 1
        # the chain-map condition cannot see the matrix: the differential at
        # a degree divisible by p is zero, so it needs its own control below
        assert [lv["chain_map_ok"] for lv in report["levels"]] == [True, True, True]

    def test_perturbed_target_differential_fails_chain_map(self, orthant, monkeypatch):
        # w made nonzero at the interior targets pm: their complex is then
        # exact, so below the top level the shift image is not closed and
        # the shift induces nothing in cohomology
        real = complexes._located_degree

        def located(normals, m, char):
            sub, w = real(normals, m, char)
            if not normals and not any(x % self.P for x in m):
                w = (1,) + w[1:]
            return sub, w

        monkeypatch.setattr(complexes, "_located_degree", located)
        report = verify_isomorphism(orthant, self.BOUND, self.P)
        assert not report["passed"]
        assert [lv["chain_map_ok"] for lv in report["levels"]] == [False, False, True]
        assert [lv["isomorphism_ok"] for lv in report["levels"]] == [False, False, False]
        assert report["violations"] == tuple(
            v
            for m in self.INTERIOR
            for v in (
                f"degree {m}, a=0: shift image is not closed",
                f"degree {m}, a=0: induced rank 0 of 1, cohomology dimension 0",
                f"degree {m}, a=1: shift image is not closed",
                f"degree {m}, a=1: induced rank 0 of 2, cohomology dimension 0",
                f"degree {m}, a=2: induced rank 0 of 1, cohomology dimension 0",
            )
        )

    def test_wrong_target_faces_fail_the_generator_identity(self, orthant, monkeypatch):
        # the faces through pm come from classifying pm on its own, not from the
        # mask of m; forget them there and V_pm grows to the whole space, so
        # the shift at the first degree on an axis is refused before its
        # wedge coordinates are compared
        real = Cone._point_mask

        def forgetful(cone, v):
            mask = real(cone, v)
            return 0 if mask is not None and not any(x % self.P for x in v) else mask

        monkeypatch.setattr(Cone, "_point_mask", forgetful)
        with pytest.raises(ArithmeticError, match=r"\(0, 1\) and \(0, 3\)"):
            verify_isomorphism(orthant, self.BOUND, self.P)
