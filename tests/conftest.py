import pathlib

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


ACCEPTANCE_LINES = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
