import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import INTEGER_INPUTS, check_integer_input, cone_points
from tests.structural import random_exponent_cones
from toricdiff import complexes, forms
from toricdiff.cones import Cone
from toricdiff.complexes import (
    NoVertexError,
    _box_cohomology,
    cohomology,
    cohomology_table,
    degree_complex,
    oracle_full_complex,
    poincare_check,
    poincare_text,
)
from toricdiff.forms import degree_subspace, wedge_matrix
from toricdiff.linalg import QQ, rank


@pytest.fixture(scope="module")
def quadric():
    return Cone([(0, 1), (2, -1)]).dual


@pytest.fixture(scope="module")
def orthant():
    return Cone([(1, 0), (0, 1)]).dual


class TestDegreeComplex:
    def test_interior_degree_matrices(self, orthant):
        dc = degree_complex(orthant, (1, 1), 0)
        assert dc.dims == (1, 2, 1)
        assert dc.differentials[0] == ((1,), (1,))
        assert dc.differentials[1] == ((-1, 1),)

    def test_zero_differential_on_p_divisible_degrees(self, orthant):
        dc = degree_complex(orthant, (2, 2), 2)
        assert all(x == 0 for D in dc.differentials for row in D for x in row)
        dc = degree_complex(orthant, (2, 2), 3)
        assert any(x != 0 for D in dc.differentials for row in D for x in row)

    @pytest.mark.parametrize("m", [(2.5, 1), (2, Fraction(1, 3))], ids=["float", "fraction"])
    def test_rejects_non_integral_degrees(self, orthant, m):
        # not truncated to the complex at (2, 1); integral values of any type still pass
        with pytest.raises(ValueError, match="must be integers"):
            degree_complex(orthant, m, 0)
        assert degree_complex(orthant, (2.0, Fraction(1)), 0).degree == (2, 1)

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [lambda c, x: degree_complex(c, (x, 1), 0), lambda c, x: degree_complex(c, (1, 1), x)],
        ids=["degree", "char"],
    )
    def test_degree_and_char_follow_the_integer_rule(self, orthant, call, x, accepted):
        check_integer_input(lambda x: call(orthant, x), x, accepted)

    def test_origin(self, orthant):
        dc = degree_complex(orthant, (0, 0), 0)
        assert dc.dims == (1, 0, 0)
        assert cohomology(dc) == (1, 0, 0)

    def test_exact_when_class_nonzero(self, quadric):
        for m in ((1, 0), (1, 1), (2, 1), (1, 2)):
            assert cohomology(degree_complex(quadric, m, 0)) == (0, 0, 0)

    def test_full_cohomology_when_class_vanishes(self, quadric):
        assert cohomology(degree_complex(quadric, (2, 2), 2)) == (1, 2, 1)
        assert cohomology(degree_complex(quadric, (2, 0), 2)) == (1, 1, 0)

    def test_characteristic_matters(self, quadric):
        m = (2, 2)
        assert cohomology(degree_complex(quadric, m, 0)) == (0, 0, 0)
        assert cohomology(degree_complex(quadric, m, 2)) == (1, 2, 1)
        assert cohomology(degree_complex(quadric, m, 3)) == (0, 0, 0)

    def test_perturbed_wedge_fails_the_integer_square_check(self, monkeypatch):
        # negative control: the identities behind every box table are proven
        # on the template itself, so one flipped sign there must fail them
        real = forms._wedge_template
        for d in range(1, 6):

            def flipped(dim, a, d=d):
                got = real(dim, a)
                if (dim, a) == (d, d // 2):
                    row, col, odd, pos = got[0]
                    got = ((row, col, not odd, pos), *got[1:])
                return got

            forms._prove_koszul.cache_clear()
            monkeypatch.setattr(forms, "_wedge_template", flipped)
            try:
                with pytest.raises(AssertionError, match=f"wedge template of k\\^{d}"):
                    forms._prove_koszul(d)
            finally:
                forms._prove_koszul.cache_clear()

    def test_perturbed_wedge_fails_the_single_degree_square_check(self, monkeypatch):
        # negative control: the d∘d check of a single degree's matrices can still fail
        real = complexes.wedge_matrix

        def perturbed(field, w, a):
            D = real(field, w, a)
            if a == 1:
                D = ((D[0][0] + 1, *D[0][1:]), *D[1:])
            return D

        monkeypatch.setattr(complexes, "wedge_matrix", perturbed)
        octant = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(AssertionError, match="differential does not square to zero"):
            degree_complex(octant, (1, 1, 1), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_scaling_lemma(seed, pick):
    # over QQ the complex wedges with w, the coordinates of m, as ints; they
    # must be the Fraction coordinates that Subspace.coordinates_of solves for
    cone = next(random_exponent_cones(random.Random(seed), 1))
    points = cone_points(cone, 2)
    m = points[pick % len(points)]
    n = cone.ambient_rank
    w = degree_subspace(cone, m, 0).coordinates_of(m)
    assert all(isinstance(x, Fraction) for x in w)
    ranks = [rank(QQ, wedge_matrix(QQ, w, a)) for a in range(n)] + [0]
    dc = degree_complex(cone, m, 0)
    want = tuple(dc.dims[a] - ranks[a] - (ranks[a - 1] if a else 0) for a in range(n + 1))
    assert cohomology(dc) == want
    assert all(type(x) is int for D in dc.differentials for row in D for x in row)
    if any(w):
        # level 0 -> 1 is the column of w itself
        assert [row[0] for row in dc.differentials[0]] == list(w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([0, 2, 3, 5]))
def test_box_stream_agrees_with_ranks(seed, char):
    # the box path (w and the proven identities) against the rank path of
    # single degrees; the box reaches the multiples of p, where w can vanish
    rng = random.Random(seed)
    cone = next(random_exponent_cones(rng, 1))
    rows = list(_box_cohomology(cone, max(char, 2), char))
    for m, h in rng.sample(rows, min(len(rows), 12)):
        assert h == cohomology(degree_complex(cone, m, char)), (cone.rays, m, char)


class TestCohomologyTable:
    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [lambda c, x: cohomology_table(c, x, 0), lambda c, x: cohomology_table(c, 1, x)],
        ids=["bound", "char"],
    )
    def test_bound_and_char_follow_the_integer_rule(self, quadric, call, x, accepted):
        check_integer_input(lambda x: call(quadric, x), x, accepted)

    def test_quadric_mod_2_small_box(self, quadric):
        table = cohomology_table(quadric, 2, 2)
        assert table.entries == {
            (0, 0): (1, 1, 0),
            (1, 0): (0, 0, 0),
            (1, 1): (0, 0, 0),
            (1, 2): (0, 0, 0),
            (2, 0): (1, 1, 0),
            (2, 1): (0, 0, 0),
            (2, 2): (1, 2, 1),
        }

    def test_json_round_trip(self, quadric):
        table = cohomology_table(quadric, 2, 2)
        data = json.loads(table.to_json())
        assert {tuple(row["degree"]): tuple(row["h"]) for row in data["cohomology"]} == table.entries
        assert [data["rays"], data["characteristic"], data["bound"]] == [[[1, 0], [1, 2]], 2, 2]
        assert len(data) == 4

    def test_csv_shape(self, orthant):
        table = cohomology_table(orthant, 1, 0)
        lines = table.to_csv().splitlines()
        assert lines[0] == "m1,m2,h0,h1,h2"
        assert lines[1] == "0,0,1,0,0"
        assert len(lines) == 1 + len(table.entries)

    def test_hash_stable(self, quadric):
        t1 = cohomology_table(quadric, 2, 2)
        t2 = cohomology_table(quadric, 2, 2)
        assert t1.table_hash() == t2.table_hash()

    def test_box_stream_matches_direct_computation(self, corpus):
        # the table reads each degree off w and the proven identities; on this
        # non-simplicial cone a mask paired with the wrong degree changes
        # entries, so compare every one with the ranks of its own complex
        cone = corpus["square-3d"]
        table = cohomology_table(cone, 4, 3)
        assert len(table.entries) == 235
        for m, h in table.entries.items():
            assert h == cohomology(degree_complex(cone, m, 3)), m

    def test_bounded_vm_caches_survive_eviction(self, corpus, monkeypatch):
        assert forms._kernel_of_normals.cache_info().maxsize == forms._VM_CACHE_SIZE
        cone = corpus["square-3d"]
        warm = {char: cohomology_table(cone, 2, char) for char in (0, 3)}
        real = complexes._located_degree

        def evicting(*args):
            forms._kernel_of_normals.cache_clear()
            return real(*args)

        monkeypatch.setattr(complexes, "_located_degree", evicting)
        for char, table in warm.items():
            assert cohomology_table(cone, 2, char) == table

    def test_streamed_hash_is_the_csv_hash(self, quadric):
        for char in (0, 2):
            table = cohomology_table(quadric, 3, char)
            assert table.table_hash() == hashlib.sha256(table.to_csv().encode()).hexdigest()


class TestPoincare:
    def test_passes_on_pointed_cones(self, quadric, orthant):
        for cone in (quadric, orthant):
            report = poincare_check(cone, 3)
            assert report["passed"]
            assert report["violations"] == ()
            assert report["checked"] == len(cone_points(cone, 3))

    def test_hash_is_the_table_hash(self, corpus):
        # the check hashes the degrees as they stream by; the table hashes its
        # sorted entries, and the two must be the same CSV bytes
        for name, cone in corpus.items():
            report = poincare_check(cone, 2)
            table = cohomology_table(cone, 2, 0)
            assert report["table_hash"] == table.table_hash(), name
            assert report["checked"] == len(table.entries)

    def test_needs_vertex(self):
        halfplane = Cone([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NoVertexError):
            poincare_check(halfplane, 2)

    def test_json_round_trip(self, orthant):
        report = poincare_check(orthant, 2)
        assert json.loads(json.dumps(report)) == {
            "rays": [[0, 1], [1, 0]],
            "bound": 2,
            "checked": report["checked"],
            "passed": True,
            "violations": [],
            "table_hash": report["table_hash"],
        }

    def test_text_says_pass(self, orthant):
        assert "PASS" in poincare_text(poincare_check(orthant, 2))

    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    def test_bound_follows_the_integer_rule(self, orthant, x, accepted):
        check_integer_input(lambda x: poincare_check(orthant, x), x, accepted)


class TestOracle:
    @pytest.mark.parametrize("x, accepted", INTEGER_INPUTS)
    @pytest.mark.parametrize(
        "call",
        [lambda c, x: oracle_full_complex(c, x, 0), lambda c, x: oracle_full_complex(c, 1, x)],
        ids=["bound", "char"],
    )
    def test_bound_and_char_follow_the_integer_rule(self, quadric, call, x, accepted):
        check_integer_input(lambda x: call(quadric, x), x, accepted)

    def test_orthant_box_two_mod_two(self, orthant):
        assert oracle_full_complex(orthant, 2, 2) == (4, 4, 1)

    def test_char_zero_only_origin_survives(self, orthant, quadric):
        assert oracle_full_complex(orthant, 1, 0) == (1, 0, 0)
        assert oracle_full_complex(quadric, 3, 0) == (1, 0, 0)

    def test_each_level_streams_its_columns(self, corpus, monkeypatch):
        # one sparse_rank call per level, each fed a one-shot iterator of columns
        real = complexes.sparse_rank
        fed = []

        def ranked(field, columns):
            assert not isinstance(columns, (list, tuple)) and iter(columns) is columns
            fed.append(columns)
            return real(field, columns)

        cone = corpus["square-3d"]
        want = oracle_full_complex(cone, 2, 3)
        monkeypatch.setattr(complexes, "sparse_rank", ranked)
        assert oracle_full_complex(cone, 2, 3) == want
        assert len(fed) == cone.ambient_rank
        assert all(next(columns, None) is None for columns in fed)

    def test_matches_degreewise_sums(self, quadric, orthant):
        for cone in (quadric, orthant):
            for char in (0, 2, 3):
                for bound in (1, 2):
                    totals = oracle_full_complex(cone, bound, char)
                    table = cohomology_table(cone, bound, char)
                    n = cone.ambient_rank
                    sums = tuple(
                        sum(h[a] for h in table.entries.values()) for a in range(n + 1)
                    )
                    assert totals == sums
