"""Inputs and request menus of the four benchmark workloads.

Every request is one ``python -m toricdiff`` invocation on a cone file that
the benchmark writes into a fresh directory.  The bundled corpus under
``cones/`` is only read; every other cone is generated here.  The random
cones of ``cone-dd`` come from fixed per-cone seeds, so a menu holds the
same requests for every run seed and each request's stdout digest can be
pinned in ``reference.json``.  The run seed only shuffles the menu order.

Each workload stresses different layers; the README lists which per-layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

CORPUS = ("a1-quadric", "halfplane-degenerate", "orthant-2", "orthant-3", "square-3d")


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``control`` marks a request that must exit 2."""

    id: str
    argv: tuple
    control: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple


def _orthant(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _random_cone(rank, nrays):
    """Pointed cone of ``nrays`` distinct rays in the open half-space x_n > 0."""
    rng = random.Random(f"cone-dd/{rank}/{nrays}")
    rays = set()
    while len(rays) < nrays:
        rays.add(tuple(rng.randint(-3, 3) for _ in range(rank - 1)) + (rng.randint(1, 3),))
    return [list(r) for r in sorted(rays)]


DD_SHAPES = ((4, 12), (4, 16), (4, 20), (4, 24), (5, 12), (5, 16), (5, 20), (5, 24))


def generated_specs():
    """Cone files the benchmark builds itself, by file stem."""
    specs = {f"orthant-{n}": _orthant(n) for n in (4, 5, 6)}
    # cones over a hexagon, an octahedron and a 3-cube: non-simplicial
    specs["hexagon-3d"] = [[1, 0, 1], [1, 1, 1], [0, 1, 1], [-1, 0, 1], [-1, -1, 1], [0, -1, 1]]
    specs["octahedron-4d"] = [
        [s * int(i == j) for j in range(3)] + [1] for i in range(3) for s in (1, -1)
    ]
    specs["cube-4d"] = [list(v) + [1] for v in itertools.product((-1, 1), repeat=3)]
    for rank, nrays in DD_SHAPES:
        specs[f"dd-{rank}-{nrays}"] = _random_cone(rank, nrays)
    out = {
        name: {"lattice_rank": len(rays[0]), "rays": rays, "space": "N"}
        for name, rays in specs.items()
    }
    # malformed on purpose: a zero ray is refused with exit 2
    out["zero-ray"] = {"lattice_rank": 2, "rays": [[1, 0], [0, 0]], "space": "N"}
    return out


def write_inputs(corpus_dir, target_dir):
    """Copy the corpus and write the generated cones into ``target_dir``."""
    for name in CORPUS:
        text = (corpus_dir / f"{name}.json").read_text(encoding="utf-8")
        (target_dir / f"{name}.json").write_text(text, encoding="utf-8")
    for name, spec in generated_specs().items():
        (target_dir / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")


def _req(command, cone, *flags, control=False):
    """Request ``command cone.json flags...``, identified by its command line."""
    argv = (command, f"{cone}.json", *flags)
    return Request(" ".join(argv), argv, control)


def _cartier(cone, p, bound):
    return _req("cartier", cone, "--p", str(p), "--bound", str(bound), "--format", "json")


def _poincare(cone, bound):
    return _req("poincare", cone, "--bound", str(bound), "--format", "json")


def _cohomology_qq(cone, bound):
    return _req("cohomology", cone, "--p", "0", "--bound", str(bound), "--format", "csv")


def _oracle(cone, p, bound):
    return _req("oracle", cone, "--p", str(p), "--bound", str(bound), "--format", "json")


CARTIER_GFP = Workload(
    "cartier-gfp",
    "GF(p) Cartier check on a p*B box: box scan, face classification, V_m and phi dominate",
    (
        _cartier("square-3d", 5, 4),
        _cartier("square-3d", 3, 2),
        _cartier("a1-quadric", 2, 3),
        _cartier("orthant-2", 5, 3),
        _cartier("orthant-3", 2, 2),
        _cartier("orthant-3", 5, 2),
        _cartier("orthant-4", 2, 2),
        _cartier("orthant-5", 2, 2),
        _cartier("orthant-6", 2, 1),
        _cartier("hexagon-3d", 3, 2),
        _cartier("hexagon-3d", 5, 2),
        _cartier("octahedron-4d", 3, 1),
        _cartier("cube-4d", 2, 2),
        _cartier("cube-4d", 3, 1),
        _req("cartier", "orthant-2", "--p", "4", "--bound", "2", "--format", "json", control=True),
        _req("vm", "orthant-2", "--p", "2", "--degree=-1,0", "--format", "json", control=True),
    ),
)

POINCARE_QQ = Workload(
    "poincare-qq",
    "QQ exactness over a box with no memo: complex assembly and Bareiss/Fraction ranks dominate",
    (
        _poincare("square-3d", 4),
        _poincare("square-3d", 6),
        _poincare("a1-quadric", 6),
        _poincare("orthant-4", 3),
        _poincare("hexagon-3d", 6),
        _poincare("octahedron-4d", 3),
        _poincare("cube-4d", 4),
        _poincare("cube-4d", 5),
        _cohomology_qq("square-3d", 5),
        _cohomology_qq("a1-quadric", 5),
        _cohomology_qq("orthant-3", 3),
        _cohomology_qq("hexagon-3d", 5),
        _cohomology_qq("cube-4d", 4),
        _req("poincare", "halfplane-degenerate", "--bound", "2", "--format", "json", control=True),
        _req("poincare", "square-3d", "--p", "3", "--bound", "2", "--format", "json", control=True),
    ),
)

ORACLE_UNSPLIT = Workload(
    "oracle-unsplit",
    "whole-box oracle in char 0, 2, 3: the only sparse_rank traffic, beside the dense per-degree table",
    (
        _oracle("square-3d", 0, 4),
        _oracle("square-3d", 3, 4),
        _oracle("square-3d", 2, 2),
        _oracle("a1-quadric", 0, 4),
        _oracle("orthant-4", 0, 3),
        _oracle("orthant-4", 2, 2),
        _oracle("orthant-5", 2, 2),
        _oracle("hexagon-3d", 0, 5),
        _oracle("hexagon-3d", 2, 5),
        _oracle("hexagon-3d", 3, 3),
        _oracle("octahedron-4d", 0, 3),
        _oracle("octahedron-4d", 3, 2),
        _oracle("cube-4d", 0, 3),
        _oracle("cube-4d", 3, 3),
        _req("oracle", "orthant-2", "--p", "4", "--bound", "2", "--format", "json", control=True),
        _req("vm", "orthant-2", "--degree=-1,0", "--format", "json", control=True),
    ),
)

CONE_DD = Workload(
    "cone-dd",
    "dual and facets of random rank 4-5 cones: double description and process start-up dominate",
    tuple(
        _req(command, f"dd-{rank}-{nrays}", "--format", "json")
        for rank, nrays in DD_SHAPES
        for command in ("dual", "facets")
        if command == "dual" or nrays > 16 or rank > 4
    )
    + (
        _req("facets", "halfplane-degenerate", "--space", "N", "--format", "json", control=True),
        _req("dual", "zero-ray", "--format", "json", control=True),
    ),
)

WORKLOADS = {w.name: w for w in (CARTIER_GFP, POINCARE_QQ, ORACLE_UNSPLIT, CONE_DD)}


def shuffled(workload, seed):
    """The workload's menu in the order fixed by ``seed``."""
    menu = list(workload.requests)
    random.Random(f"{workload.name}/{seed}").shuffle(menu)
    return menu
