"""The demos print exactly what they printed when their output was pinned.

Each demo runs in a fresh interpreter with ``src`` on ``PYTHONPATH``; the
sha256 of its stdout must match the digest below.  A change to any printed
byte fails here, so a speedup cannot silently change what a demo shows.
Re-pin a digest only for a deliberate change of a demo's output.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = {
    "cone_duality_tour.py": "3cc435884e0422e5f18f7404e8f1937e558ce8912c101cbceeddf8d2b1723d2c",
    "frobenius_shift_quadric.py": "fa35c5e8db9e04f2de329870a1279ede5662af6aea892199680a75221a005c32",
    "rational_exactness_walkthrough.py": "e741d2ab36b63958b5cdb6c82a8e2c080ebc89b886acd694eacdc9c51fac0318",
    "smooth_vs_singular.py": "f5f774711c7c1bcf67e32bf64939415f50b6ed350e81755d7a225f9df43b821b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
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
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
