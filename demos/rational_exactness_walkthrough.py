"""
Exactness over the rationals, one degree at a time
==================================================

The differential form complex of an affine toric variety splits into a
finite complex for every exponent m.  Over the rationals every complex at
a nonzero degree is exact as soon as the exponent cone has a vertex; this
script walks through the pieces on the coordinate plane and then lets the
bulk checker confirm the statement over a whole box of degrees.
"""

from toricdiff import (
    NoVertexError,
    Cone,
    cohomology,
    degree_complex,
    degree_subspace,
    poincare_check,
    poincare_text,
)

# Exponent cone = first quadrant, i.e. the affine plane as a toric variety.
plane = Cone([(1, 0), (0, 1)])


def fmt(rows):
    """Render exact matrix entries compactly (Fraction(3, 2) -> '3/2')."""
    return [[str(x) for x in row] for row in rows]


# Pick an interior exponent.  Both coordinates are nonzero, so no facet
# contains it and the space V_m is the whole plane.
m = (2, 1)
print("V_(2,1) basis over QQ:", fmt(degree_subspace(plane, m, 0).basis))

# The degree m complex is the exterior algebra on V_m, with differential
# "wedge with m".  Matrices are exact, rows indexed by the lexicographic
# wedge basis of the target level.  Their entries are the coordinates of m
# in the reduced basis of V_m, which are m's own entries at the pivot
# columns, so they are Python ints; here V_m is the whole plane and they
# are 2 and 1.
dc = degree_complex(plane, m, 0)
print("level dimensions:", dc.dims)
for a, D in enumerate(dc.differentials):
    print(f"differential {a} -> {a + 1}:", fmt(D))

# Wedging with a nonzero vector is exact, so every cohomology group dies.
print("cohomology in degree (2,1):", cohomology(dc))

# On a facet the story is the same with a smaller V_m; only the origin,
# where m itself is zero, keeps its cohomology.
for probe in [(3, 0), (0, 0)]:
    h = cohomology(degree_complex(plane, probe, 0))
    print(f"cohomology in degree {probe}:", h)

# The bulk checker runs the same computation for every lattice point of
# the cone in a box and reports violations (there are none).
report = poincare_check(plane, bound=4)
print()
print(poincare_text(report))

# The statement genuinely needs a vertex.  A cone whose dual contains a
# line is rejected up front instead of producing a misleading table.
no_vertex = Cone([(1, 0), (-1, 0), (0, 1)])
try:
    poincare_check(no_vertex, bound=2)
except NoVertexError as exc:
    print("half plane refused:", exc)
