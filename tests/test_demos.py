"""The demos print exactly what they printed when their output was pinned.

Each demo runs in a fresh interpreter with ``src`` on ``PYTHONPATH``; its
stdout must equal ``demos/expected/<demo>.txt`` byte for byte (CI diffs the
same files).  A change to any printed byte fails here, so a speedup cannot
silently change what a demo shows.  Re-pin a file only for a deliberate
change of a demo's output.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    assert DEMOS and [p.stem + ".py" for p in sorted((ROOT / "demos" / "expected").glob("*.txt"))] == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        cwd=str(ROOT),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "demos" / "expected" / name).with_suffix(".txt").read_bytes()
