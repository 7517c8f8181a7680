import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdiff.cli import ConeSpecError, exponent_cone, load_cone_spec, main
from toricdiff.complexes import cohomology_table
from tests.conftest import CONE_DIR


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


CONE = str(CONE_DIR / "a1-quadric.json")
ORTHANT = str(CONE_DIR / "orthant-2.json")
HALFPLANE = str(CONE_DIR / "halfplane-degenerate.json")
CORPUS = sorted(path.stem for path in CONE_DIR.glob("*.json"))
# Stdout, stderr and exit status of every command that prints one document,
# in text and JSON, recorded from the CLI; a change here changes what users see.
PINS = json.loads(pathlib.Path(__file__).with_name("cli_pins.json").read_text(encoding="utf-8"))


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

    def test_bad_files(self, tmp_path, capsys):
        cases = {
            "notjson.json": "{",
            "nonobject.json": "[1, 2]",
            "missing.json": '{"rays": [[1, 0]]}',
            "scalarrays.json": '{"lattice_rank": 1, "rays": 5}',
            "badrank.json": '{"lattice_rank": 0, "rays": [[1]]}',
            "hugerank.json": '{"lattice_rank": 1000, "rays": []}',
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
            with pytest.raises(ConeSpecError) as refused:
                load_cone_spec(path)
            # the CLI refuses the same file with exit 2 and that message
            assert run_cli("dual", path, capsys=capsys) == (2, "", f"error: {refused.value}\n")
        message = f"error: {tmp_path / 'scalarrays.json'}: rays must be a list of integer vectors\n"
        assert run_cli("dual", tmp_path / "scalarrays.json", capsys=capsys)[2] == message


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
        code, out, _ = run_cli(
            "cohomology", CONE, "--p", "2", "--bound", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        entries = {tuple(row["degree"]): tuple(row["h"]) for row in json.loads(out)["cohomology"]}
        assert entries[(2, 2)] == (1, 2, 1)

    @pytest.mark.parametrize("name", CORPUS)
    def test_cohomology_streams_the_table_bytes(self, name, capsys):
        # the command writes rows as the box streams; the table it no longer
        # builds is the reference for every format
        path = CONE_DIR / f"{name}.json"
        cone = exponent_cone(*load_cone_spec(path))
        for char in (0, 2, 3, 5):
            for bound in range(4):
                table = cohomology_table(cone, bound, char)
                text = "".join(
                    f"({','.join(map(str, m))}): h=({','.join(map(str, table.entries[m]))})\n"
                    for m in table.degrees()
                )
                expected = {"text": text, "csv": table.to_csv(), "json": table.to_json() + "\n"}
                for form, want in expected.items():
                    argv = ("cohomology", path, "--p", char, "--bound", bound, "--format", form)
                    assert run_cli(*argv, capsys=capsys) == (0, want, ""), (name, char, bound, form)

    @pytest.mark.parametrize("form", ["text", "csv", "json"])
    def test_cohomology_of_a_low_dimensional_cone_writes_nothing(self, form, tmp_path, capsys):
        spec = tmp_path / "ray.json"
        spec.write_text('{"lattice_rank": 2, "rays": [[0, 1]], "space": "M"}')
        code, out, err = run_cli("cohomology", spec, "--bound", "1", "--format", form, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "full dimensional" in err

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
                if not got[1]:
                    return got
                return (got[0], tuple((0, *row[1:]) for row in got[1])) + got[2:]

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


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: "-".join(pin["argv"]))
def test_pinned_bytes(pin, capsys):
    command, cone, *flags = pin["argv"]
    got = run_cli(command, CONE_DIR / f"{cone}.json", *flags, capsys=capsys)
    assert got == (pin["status"], pin["stdout"], pin["stderr"])


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli("dual", "no-such-file.json", capsys=capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_composite_p(self, capsys):
        # every command with --p refuses a modulus that is not prime before
        # it writes anything, whatever the output format
        commands = [
            ("vm", "--degree", "1,0"),
            ("cohomology", "--bound", "1"),
            ("cohomology", "--bound", "1", "--format", "csv"),
            ("cohomology", "--bound", "1", "--format", "json"),
            ("oracle", "--bound", "1"),
            ("cartier", "--bound", "1"),
        ]
        for command, *flags in commands:
            for p in ("4", "-3"):
                code, out, err = run_cli(command, CONE, "--p", p, *flags, capsys=capsys)
                assert (code, out) == (2, ""), (command, flags, p)
                assert "not prime" in err, (command, flags, p)

    def test_degree_outside(self, capsys):
        code, _, err = run_cli("vm", CONE, "--degree", "0,1", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "name, flags, status",
        [
            ("halfplane-degenerate", (), 0),
            ("halfplane-degenerate", ("--format", "json"), 0),
            ("orthant-2", ("--p", "2"), 2),  # outside the cone: the benchmark's control
        ],
    )
    def test_negative_degree_needs_no_equals_sign(self, name, flags, status, capsys):
        cone = CONE_DIR / f"{name}.json"
        joined = run_cli("vm", cone, *flags, "--degree=-1,0", capsys=capsys)
        assert run_cli("vm", cone, *flags, "--degree", "-1,0", capsys=capsys) == joined
        code, out, err = joined
        assert code == status
        assert err.startswith("error:") if status else out and not err

    def test_malformed_degree(self, capsys):
        code, _, err = run_cli("vm", CONE, "--degree", "1,x", capsys=capsys)
        assert code == 2
        for degree in ("1", "1,0,0"):
            got = run_cli("vm", CONE, "--degree", degree, capsys=capsys)
            assert got == (2, "", f"error: degree {degree!r} does not have 2 entries\n")

    @pytest.mark.parametrize(
        "level, message",
        [
            ("9", "wedge degree 9 out of range"),
            pytest.param("x", "wedge degree 'x' is not an integer or all", id="x-'x'"),
        ],
    )
    def test_bad_wedge_level_refused_before_the_verification(self, capsys, monkeypatch, level, message):
        from toricdiff import cartier

        def not_reached(*args):
            raise AssertionError("the verification ran before --a was checked")

        monkeypatch.setattr(cartier, "verify_isomorphism", not_reached)
        code, out, err = run_cli("cartier", CONE, "--p", "5", "--bound", "4", "--a", level, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cohomology", "orthant-3", "--p", "2", "--bound", "100000"),
            ("cartier", "orthant-3", "--p", "5", "--bound", "100000"),
        ],
    )
    def test_oversized_box_refused_before_the_scan(self, capsys, monkeypatch, argv):
        from toricdiff.cones import Cone

        def not_reached(*args):
            raise AssertionError("the box was scanned")

        monkeypatch.setattr(Cone, "_scan", not_reached)
        command, cone, *rest = argv
        code, out, err = run_cli(command, CONE_DIR / f"{cone}.json", *rest, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "more than the limit" in err

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


class TestClosedStdout:
    """A reader that goes away is not bad input: exit 141, nothing on stderr."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "cones/square-3d.json", "--p", "3", "--bound", "2", "--format", "json"),
            ("cohomology", "cones/square-3d.json", "--p", "7", "--bound", "40", "--format", "csv"),
            ("cartier", "cones/a1-quadric.json", "--p", "2", "--bound", "1"),
        ],
        ids=["oracle", "cohomology", "cartier"],
    )
    def test_exit_141_without_a_message(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "toricdiff", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                cwd=str(CONE_DIR.parent),
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_exit_141_when_the_reader_leaves_mid_stream(self):
        # as `| head -c 1` does: one byte read, then the pipe closes while
        # the rows are still being written
        argv = ("cohomology", "cones/square-3d.json", "--p", "7", "--bound", "40", "--format", "csv")
        with subprocess.Popen(
            [sys.executable, "-m", "toricdiff", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(CONE_DIR.parent),
        ) as proc:
            assert proc.stdout.read(1) == b"m"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")


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


JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-2, 2) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
VALID_CONE = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "lattice_rank": st.just(n),
            "rays": st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=4),
        }
    )
)
MALFORMED_CONE = st.fixed_dictionaries(
    {
        "lattice_rank": st.integers(-1, 3) | st.sampled_from([10**6, 2**70]) | JSON_JUNK,
        "rays": st.lists(st.lists(st.integers(-2, 2), max_size=4) | JSON_JUNK, max_size=3) | JSON_JUNK,
    },
    optional={"space": st.sampled_from(["N", "M", "X", None, 1])},
)
CONE_TEXT = VALID_CONE.map(json.dumps) | (MALFORMED_CONE | JSON_JUNK).map(json.dumps) | st.text(max_size=6)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cone.json"


@settings(max_examples=150, deadline=None)
@given(
    text=CONE_TEXT,
    command=st.sampled_from(["dual", "facets", "vm", "cohomology", "poincare", "cartier", "oracle"]),
    p=st.sampled_from(["0", "2", "3"]) | st.sampled_from(["4", "1", "-2", "2147483647", "x", ""]),
    bound=st.sampled_from(["1", "2"]) | st.sampled_from(["-1", "0", "100000", "x", ""]),
    degree=st.sampled_from(["0", "1,0", "(1,1,1)"]) | st.sampled_from(["1,x", ""]) | st.text(max_size=5),
    level=st.sampled_from(["all", "0", "1", "9", "-1", "x"]),
    drop_required=st.integers(0, 4).map(lambda k: k == 0),
)
def test_fuzzed_command_line_fails_cleanly(fuzz_file, text, command, p, bound, degree, level, drop_required):
    # whatever the cone file and flags, the CLI exits 0 or 1 silently, 2 with an
    # error line, or 2 from argparse; no other exception escapes
    fuzz_file.write_text(text)
    argv = [command, str(fuzz_file)]
    if command == "vm":
        argv += ["--p", p] + ([] if drop_required else ["--degree", degree])
    elif command not in ("dual", "facets"):
        argv += ["--p", p] + ([] if drop_required else ["--bound", bound])
    if command == "cartier":
        argv += ["--a", level]
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:
        assert code in (0, 1) and err.getvalue() == ""
