"""
A tour of cones and their duals
===============================

Build a rational polyhedral cone from ray generators, compute its dual by
the double description method, and read off the facet data that drives
everything else in the library.
"""

from toricdiff import Cone, NotPointedError

# The quadric cone: rays (0,1) and (2,-1) in the one-parameter lattice N.
# Generators are fed in scaled and with a redundant interior vector; the
# constructor canonicalizes down to primitive extreme rays.
sigma = Cone([(0, 3), (4, -2), (1, 1)])
print("sigma rays:      ", sigma.rays)

# The dual cone lives in the exponent lattice M.  Its lattice points are
# the exponents of the monomials on the corresponding affine toric variety
# (here: the A1 surface x*z = y^2).
dual = sigma.dual
print("dual rays:       ", dual.rays)
print("dual of the dual is the same object again:", dual.dual is sigma)

# Facets of the dual cone are cut out by the rays of sigma.  Each facet
# records its inward normal and a basis of the saturated lattice spanned
# by the facet itself.
for facet in dual.facets:
    print(f"facet {facet.index}: normal {facet.normal}, span {facet.span.basis}")

# Membership testing and lattice point enumeration, exact over ZZ.
print("(1, 1) in dual cone:", dual.contains((1, 1)))
print("(0, -1) in dual cone:", dual.contains((0, -1)))
print("lattice points with entries in [-2, 2]:")
print(" ", tuple(m for m, _ in dual.lattice_points(2)))

# A cone that is not full dimensional has no well defined facet data and
# says so rather than guessing.
ray_only = Cone([(1, 2)])
try:
    ray_only.facets
except NotPointedError as exc:
    print("lower dimensional cone refused:", exc)
