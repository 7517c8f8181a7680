"""Run the doctests embedded in the library docstrings, and the README quickstart."""

import doctest
import pathlib

import pytest

import toricdiff.cones
import toricdiff.forms
import toricdiff.linalg

MODULES = [toricdiff.linalg, toricdiff.cones, toricdiff.forms]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_quickstart(capsys):
    # every print in the block carries its expected output as a comment
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 4
