"""Randomized structural checks shared by the property and acceptance suites.

Every assertion here is a consequence of the definitions alone, so the
checks need no precomputed expected values: they compare the library
against identities that any correct implementation must satisfy.
"""

import random

from toricdiff.cones import Cone
from toricdiff.complexes import cohomology, degree_complex
from toricdiff.forms import degree_subspace
from toricdiff.linalg import field_of_characteristic, mat_mul


def random_exponent_cones(rng, count, max_rank=3, entry_bound=3):
    """Yield ``count`` full dimensional exponent cones with 1..max_rank rank.

    Rays are drawn uniformly from a small box; candidates whose span is a
    proper subspace are discarded and redrawn, so the stream always
    consists of cones on which facet data is defined.
    """
    produced = 0
    while produced < count:
        n = rng.randint(1, max_rank)
        nrays = rng.randint(1, n + 2)
        rays = []
        for _ in range(nrays):
            ray = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n))
            if any(ray):
                rays.append(ray)
        if not rays:
            continue
        cone = Cone(rays)
        if not cone.is_full_dimensional():
            continue
        produced += 1
        yield cone


def sample_degrees(cone, rng, bound=2, per_cone=4):
    points = list(cone.lattice_points(bound))
    picked = {tuple([0] * cone.ambient_rank)}
    while len(picked) < per_cone + 1 and len(picked) < len(points):
        picked.add(rng.choice(points))
    return sorted(picked)


def check_degree(cone, m, char):
    """Assert the definitional identities for one cone, degree and field.

    Returns the number of identities that were checked.
    """
    field = field_of_characteristic(char)
    sub = degree_subspace(cone, m, char)
    scaled = degree_subspace(cone, tuple(3 * x for x in m), char)
    assert sub == scaled, (cone.rays, m, char)
    assert sub.contains([field.of(x) for x in m])

    dc = degree_complex(cone, m, char)
    for a in range(len(dc.differentials) - 1):
        prod = mat_mul(field, dc.differentials[a + 1], dc.differentials[a])
        assert all(x == field.zero for row in prod for x in row)

    h = cohomology(dc)
    euler = sum((-1) ** a * x for a, x in enumerate(h))
    assert euler == (1 if sub.dim == 0 else 0), (cone.rays, m, char, h)

    if char == 0:
        should_be_exact = any(m)
    else:
        should_be_exact = any(x % char for x in m)
    assert (sum(h) == 0) == should_be_exact, (cone.rays, m, char, h)
    return 4


def check_cone(cone, rng, chars=(0, 2, 3)):
    """Run the full structural battery on one cone; returns checks done."""
    assert cone.dual.dual is cone
    done = 1

    points = cone.lattice_points(1)
    for u in points:
        for v in points:
            s = tuple(a + b for a, b in zip(u, v))
            assert cone.contains(s)
            if all(abs(x) <= 1 for x in s):
                assert s in points
            done += 1

    degrees = sample_degrees(cone, rng)
    for m in degrees:
        for char in chars:
            done += check_degree(cone, m, char)
        for u in degrees:
            s = tuple(a + b for a, b in zip(m, u))
            assert degree_subspace(cone, m, 0).is_subspace_of(
                degree_subspace(cone, s, 0)
            )
            done += 1
    return done


def run_structural_suite(seed, cone_count, chars=(0, 2, 3)):
    rng = random.Random(seed)
    cones = 0
    checks = 0
    for cone in random_exponent_cones(rng, cone_count):
        checks += check_cone(cone, rng, chars)
        cones += 1
    return cones, checks
