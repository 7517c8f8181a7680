import hashlib

import pytest

from toricdiff.cones import Cone
from toricdiff.complexes import (
    CohomologyTable,
    NoVertexError,
    PoincareReport,
    cohomology,
    cohomology_table,
    degree_complex,
    oracle_full_complex,
    poincare_check,
)


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
        assert dc.differentials[0].tolist() == [[1], [1]]
        assert dc.differentials[1].tolist() == [[-1, 1]]

    def test_zero_differential_on_p_divisible_degrees(self, orthant):
        dc = degree_complex(orthant, (2, 2), 2)
        assert all(x == 0 for D in dc.differentials for x in D.flat)
        dc = degree_complex(orthant, (2, 2), 3)
        assert any(x != 0 for D in dc.differentials for x in D.flat)

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


class TestCohomologyTable:
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
        assert CohomologyTable.from_json(table.to_json()) == table

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

    def test_memo_matches_direct_computation(self, corpus):
        # the GF(p) table computes each (facet mask, m mod p) type once; on
        # this non-simplicial cone a wrong key or a mask paired with the
        # wrong degree changes entries, so compare every one with its own
        # complex
        cone = corpus["square-3d"]
        table = cohomology_table(cone, 4, 3)
        assert len(table.entries) == 235
        for m, h in table.entries.items():
            assert h == cohomology(degree_complex(cone, m, 3)), m

    def test_streamed_hash_is_the_csv_hash(self, quadric):
        table = cohomology_table(quadric, 3, 2)
        assert table.table_hash() == hashlib.sha256(table.to_csv().encode()).hexdigest()


class TestPoincare:
    def test_passes_on_pointed_cones(self, quadric, orthant):
        for cone in (quadric, orthant):
            report = poincare_check(cone, 3)
            assert report.passed
            assert report.violations == ()
            assert report.checked == len(cone.lattice_points(3))

    def test_needs_vertex(self):
        halfplane = Cone([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NoVertexError):
            poincare_check(halfplane, 2)

    def test_json_round_trip(self, orthant):
        report = poincare_check(orthant, 2)
        assert PoincareReport.from_json(report.to_json()) == report

    def test_text_says_pass(self, orthant):
        assert "PASS" in poincare_check(orthant, 2).to_text()


class TestOracle:
    def test_orthant_box_two_mod_two(self, orthant):
        assert oracle_full_complex(orthant, 2, 2) == (4, 4, 1)

    def test_char_zero_only_origin_survives(self, orthant, quadric):
        assert oracle_full_complex(orthant, 1, 0) == (1, 0, 0)
        assert oracle_full_complex(quadric, 3, 0) == (1, 0, 0)

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
