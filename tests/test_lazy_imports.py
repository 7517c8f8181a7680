"""Each CLI command loads only the modules it runs, and the package exports
resolve on first use.

Every request runs in a fresh process, so whatever a command imports but
never calls is paid on every request.  Each command case below runs in its
own interpreter and records ``sys.modules`` just before ``toricdiff.cli`` is
imported, so the modules that interpreter start-up loads are left out.  No
command loads ``hashlib``: it brings in OpenSSL's libcrypto, about 3.5 MB of
peak RSS, and tables are hashed with the interpreter's built-in sha256.
Importing ``toricdiff.cli`` also keeps numpy's OpenBLAS from starting a
thread pool that the box scan never uses.
"""

import json
import os
import subprocess
import sys

import pytest

import toricdiff
from tests.conftest import CONE_DIR

SRC = CONE_DIR.parent / "src"
QUADRIC = str(CONE_DIR / "a1-quadric.json")
SQUARE = str(CONE_DIR / "square-3d.json")

PROGRAM = {"toricdiff.cartier", "toricdiff.complexes", "toricdiff.forms"}
OPENSSL = {"hashlib", "_hashlib"}
BEYOND_CONES = PROGRAM | OPENSSL
BEYOND_TABLES = {"toricdiff.cartier"} | OPENSSL

PROBE = """
import json, sys
before = set(sys.modules)
from toricdiff.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def run_fresh(code, *argv, env=None):
    """stdout of ``code`` run in a fresh interpreter; fails on a nonzero exit.

    ``env``, when given, replaces this process's environment in the child.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def added_modules(*argv):
    return set(json.loads(run_fresh(PROBE, *argv).splitlines()[-1]))


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(("dual", QUADRIC), BEYOND_CONES, id="dual"),
        pytest.param(("facets", QUADRIC), BEYOND_CONES, id="facets"),
        pytest.param(("vm", QUADRIC, "--degree", "1,0"), BEYOND_TABLES, id="vm"),
        pytest.param(("cohomology", QUADRIC, "--p", "2", "--bound", "2"), BEYOND_TABLES, id="cohomology"),
        pytest.param(("oracle", SQUARE, "--p", "0", "--bound", "2"), BEYOND_TABLES, id="oracle"),
        pytest.param(("poincare", QUADRIC, "--bound", "2"), BEYOND_TABLES, id="poincare"),
        pytest.param(("cartier", QUADRIC, "--p", "2", "--bound", "1"), OPENSSL, id="cartier"),
    ],
)
def test_command_loads_only_what_it_runs(argv, absent):
    added = added_modules(*argv)
    assert "toricdiff.cones" in added
    assert not added & absent


def test_cartier_loads_everything():
    """The control: the probe sees every module a command does load."""
    assert PROGRAM <= added_modules("cartier", QUADRIC, "--p", "2", "--bound", "1")
    cohomology = added_modules("cohomology", QUADRIC, "--p", "2", "--bound", "2")
    assert PROGRAM - {"toricdiff.cartier"} <= cohomology


THREADS = """
import os
import toricdiff.cli
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task; a BLAS pool needs two cores",
)
def test_cli_import_starts_no_blas_threads():
    # An in-process import of toricdiff.cli sets the variable in this
    # process, so the child's environment drops it explicitly.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert run_fresh(THREADS, env=env).split() == ["1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert run_fresh(THREADS, env=env).split()[1] == "2"


def test_package_import_loads_no_module():
    run_fresh(
        "import sys, toricdiff\n"
        "assert not [m for m in sys.modules if m.startswith('toricdiff.')]\n"
        "assert toricdiff.cones.Cone is toricdiff.Cone"
    )


class TestLazyExports:
    def test_every_export_resolves(self):
        assert len(set(toricdiff.__all__)) == len(toricdiff.__all__)
        for name in toricdiff.__all__:
            assert getattr(toricdiff, name) is not None, name

    def test_dir_lists_every_export(self):
        assert set(toricdiff.__all__) <= set(dir(toricdiff))

    def test_star_import(self):
        namespace = {}
        exec("from toricdiff import *", namespace)
        assert set(toricdiff.__all__) <= set(namespace)
        assert namespace["Cone"] is toricdiff.cones.Cone

    def test_unknown_name(self):
        for name in (
            "integer_lifts",
            "check_chain_map",
            "check_split",
            "GradedPiece",
            "graded_piece",
            "reduce_mod_p",
        ):
            with pytest.raises(AttributeError, match=name):
                getattr(toricdiff, name)
        with pytest.raises(ImportError):
            exec("from toricdiff import no_such_name", {})
