import json
import subprocess
import sys

import pytest

from toricdiff.cli import ConeSpecError, exponent_cone, load_cone_spec, main
from tests.conftest import CONE_DIR


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


CONE = str(CONE_DIR / "a1-quadric.json")
ORTHANT = str(CONE_DIR / "orthant-2.json")
HALFPLANE = str(CONE_DIR / "halfplane-degenerate.json")


class TestSpecLoading:
    def test_valid_file(self):
        n, rays, space = load_cone_spec(CONE)
        assert n == 2 and space == "N"
        assert rays == ((0, 1), (2, -1))

    def test_exponent_cone_orientation(self):
        cone = exponent_cone(*load_cone_spec(CONE))
        assert cone.rays == ((1, 0), (1, 2))
        m_side = exponent_cone(2, ((1, 0), (1, 2)), "M")
        assert m_side == cone

    def test_bad_files(self, tmp_path):
        cases = {
            "notjson.json": "{",
            "nonobject.json": "[1, 2]",
            "missing.json": '{"rays": [[1, 0]]}',
            "badrank.json": '{"lattice_rank": 0, "rays": [[1]]}',
            "raggedray.json": '{"lattice_rank": 2, "rays": [[1, 0], [1]]}',
            "floatray.json": '{"lattice_rank": 1, "rays": [[1.5]]}',
            "zeroray.json": '{"lattice_rank": 2, "rays": [[0, 0]]}',
            "boolray.json": '{"lattice_rank": 1, "rays": [[true]]}',
            "badspace.json": '{"lattice_rank": 1, "rays": [[1]], "space": "X"}',
            "deep.json": "[" * 100000 + "]" * 100000,
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ConeSpecError):
                load_cone_spec(path)


class TestCommands:
    def test_dual(self, capsys):
        code, out, _ = run_cli("dual", CONE, capsys=capsys)
        assert code == 0
        assert out == "(1,0)\n(1,2)\n"

    def test_dual_json(self, capsys):
        code, out, _ = run_cli("dual", CONE, "--format", "json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"lattice_rank": 2, "rays": [[1, 0], [1, 2]]}

    def test_space_override(self, capsys):
        code, out, _ = run_cli("dual", CONE, "--space", "M", capsys=capsys)
        assert code == 0
        assert out == "(0,1)\n(2,-1)\n"

    def test_facets(self, capsys):
        code, out, _ = run_cli("facets", CONE, capsys=capsys)
        assert code == 0
        assert out.splitlines() == [
            "facet 0: normal (0,1), span [(1,0)]",
            "facet 1: normal (2,-1), span [(1,2)]",
        ]

    def test_vm_rational(self, capsys):
        code, out, _ = run_cli("vm", CONE, "--degree", "0,0", capsys=capsys)
        assert code == 0
        assert "dim 0" in out

    def test_vm_mod_two(self, capsys):
        code, out, _ = run_cli("vm", CONE, "--degree", "0,0", "--p", "2", capsys=capsys)
        assert code == 0
        assert "dim 1" in out and "(1,0)" in out

    def test_cohomology_csv(self, capsys):
        code, out, _ = run_cli(
            "cohomology", CONE, "--p", "2", "--bound", "2", "--format", "csv", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m1,m2,h0,h1,h2"
        assert "2,2,1,2,1" in lines

    def test_cohomology_json_round_trip(self, capsys):
        from toricdiff.complexes import CohomologyTable

        code, out, _ = run_cli(
            "cohomology", CONE, "--p", "2", "--bound", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        table = CohomologyTable.from_json(out)
        assert table.entries[(2, 2)] == (1, 2, 1)

    def test_poincare_pass(self, capsys):
        code, out, _ = run_cli("poincare", ORTHANT, "--bound", "3", capsys=capsys)
        assert code == 0
        assert "PASS" in out

    def test_poincare_rejects_characteristic(self, capsys):
        code, _, err = run_cli("poincare", ORTHANT, "--bound", "2", "--p", "3", capsys=capsys)
        assert code == 2
        assert "characteristic zero" in err

    def test_poincare_degenerate_is_input_error(self, capsys):
        code, _, err = run_cli("poincare", HALFPLANE, "--bound", "2", capsys=capsys)
        assert code == 2
        assert "vertex" in err

    def test_cartier_pass(self, capsys):
        code, out, _ = run_cli("cartier", CONE, "--p", "2", "--bound", "2", capsys=capsys)
        assert code == 0
        assert "overall: PASS" in out
        assert "generator identity" in out

    def test_cartier_single_level(self, capsys):
        code, out, _ = run_cli(
            "cartier", CONE, "--p", "2", "--bound", "2", "--a", "1", capsys=capsys
        )
        assert code == 0
        assert "a=1" in out and "a=0" not in out

    def test_cartier_json(self, capsys):
        code, out, _ = run_cli(
            "cartier", CONE, "--p", "3", "--bound", "1", "--format", "json", capsys=capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["generator_identity"]["passed"] is True

    @pytest.mark.parametrize("broken", [False, True])
    def test_cartier_single_level_json_cuts_the_full_json(self, capsys, monkeypatch, broken):
        if broken:
            # a wrong level-1 shift: the a=0 view must still say the run failed
            import toricdiff.cartier as cartier

            real_phi = cartier.phi

            def broken_phi(cone, m, p):
                got = real_phi(cone, m, p)
                if not got[1].matrix.size:
                    return got
                M = got[1].matrix.copy()
                M[:, 0] = 0
                return (got[0], cartier.PhiMap(m, got[1].target_degree, 1, M)) + got[2:]

            monkeypatch.setattr(cartier, "phi", broken_phi)
        args = ("cartier", ORTHANT, "--p", "2", "--bound", "1", "--format", "json")
        code, full, _ = run_cli(*args, capsys=capsys)
        assert code == (1 if broken else 0)
        for a in (0, 1):
            code_a, out, _ = run_cli(*args, "--a", a, capsys=capsys)
            expected = json.loads(full)
            expected["levels"] = [lv for lv in expected["levels"] if lv["a"] == a]
            assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
            assert code_a == code
        assert json.loads(full)["passed"] is not broken

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli("oracle", CONE, "--p", "2", "--bound", "2", capsys=capsys)
        assert code == 0
        assert "agreement: PASS" in out


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli("dual", "no-such-file.json", capsys=capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_composite_p(self, capsys):
        code, _, err = run_cli("cartier", CONE, "--p", "4", "--bound", "1", capsys=capsys)
        assert code == 2
        assert "not prime" in err

    def test_degree_outside(self, capsys):
        code, _, err = run_cli("vm", CONE, "--degree", "0,1", capsys=capsys)
        assert code == 2

    def test_malformed_degree(self, capsys):
        code, _, err = run_cli("vm", CONE, "--degree", "1,x", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("level, message", [("9", "wedge degree 9 out of range"), ("x", "'x'")])
    def test_bad_wedge_level_refused_before_the_verification(self, capsys, monkeypatch, level, message):
        import toricdiff.cli as cli

        def not_reached(*args):
            raise AssertionError("the verification ran before --a was checked")

        monkeypatch.setattr(cli, "verify_isomorphism", not_reached)
        code, out, err = run_cli("cartier", CONE, "--p", "5", "--bound", "4", "--a", level, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_facets_on_low_dimensional_cone(self, tmp_path, capsys):
        spec = tmp_path / "ray.json"
        spec.write_text('{"lattice_rank": 2, "rays": [[0, 1]], "space": "M"}')
        code, _, err = run_cli("facets", spec, capsys=capsys)
        assert code == 2
        assert "full dimensional" in err

    def test_facets_on_halfplane_is_fine(self, capsys):
        code, out, _ = run_cli("facets", HALFPLANE, capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["facet 0: normal (0,1), span [(1,0)]"]


class TestDeterminism:
    def run_subprocess(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "toricdiff", *args],
            capture_output=True,
            cwd=str(CONE_DIR.parent),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_byte_identical_runs(self):
        args = ("cohomology", CONE, "--p", "3", "--bound", "3", "--format", "csv")
        assert self.run_subprocess(*args) == self.run_subprocess(*args)
