import pathlib
from fractions import Fraction

import numpy
import pytest

from toricdiff.cli import exponent_cone, load_cone_spec

CONE_DIR = pathlib.Path(__file__).resolve().parent.parent / "cones"


def cone_points(cone, bound):
    """The points of ``cone.lattice_points(bound)`` in scan order, without their masks."""
    return tuple(m for m, _ in cone.lattice_points(bound))


def load_exponent_cone(name):
    """Exponent cone from one of the bundled cone files."""
    return exponent_cone(*load_cone_spec(CONE_DIR / f"{name}.json"))


@pytest.fixture(scope="session")
def corpus():
    names = ("orthant-2", "orthant-3", "a1-quadric", "square-3d")
    return {name: load_exponent_cone(name) for name in names}


# The one integer rule of the library's inputs: the first three read as the
# int 2, and the other five are refused with ValueError.
INTEGER_INPUTS = [
    pytest.param(numpy.int64(2), True, id="int64"),
    pytest.param(Fraction(2), True, id="Fraction(2)"),
    pytest.param(2.0, True, id="2.0"),
    pytest.param(2.5, False, id="2.5"),
    pytest.param(Fraction(1, 2), False, id="Fraction(1,2)"),
    pytest.param(True, False, id="True"),
    pytest.param(None, False, id="None"),
    pytest.param("2", False, id="str"),
]


def check_integer_input(call, x, accepted):
    """``call(x)`` gives exactly what ``call(2)`` gives, down to its repr, or raises ValueError."""
    if accepted:
        assert repr(call(x)) == repr(call(2))
    else:
        with pytest.raises(ValueError, match="integer"):
            call(x)


ACCEPTANCE_LINES = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
