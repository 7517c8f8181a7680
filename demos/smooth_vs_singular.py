"""
A smooth surface, a quadric singularity, and a prime that notices
=================================================================

The affine plane and the quadric cone surface have the same per-degree
cohomology almost everywhere.  The difference is concentrated at the
origin, and it only exists modulo 2: the two facet lines of the quadric
exponent cone collapse to a single line mod 2, so the space V_0 jumps
from dimension 0 to dimension 1.  No other prime sees the singularity
this way.
"""

from toricdiff import (
    Cone,
    cohomology,
    cohomology_table,
    degree_complex,
    degree_subspace,
    facet_subspace,
    oracle_full_complex,
    report_text,
    verify_isomorphism,
)

plane = Cone([(1, 0), (0, 1)])
quadric = Cone([(1, 0), (1, 2)])

# Over QQ both surfaces satisfy the same vanishing: cohomology only at the
# origin, and there it is a single class in level 0.
for name, cone in [("plane", plane), ("quadric", quadric)]:
    h = cohomology(degree_complex(cone, (0, 0), 0))
    print(f"{name}: cohomology at the origin over QQ = {h}")

# Mod 2 the tables disagree, but only in one row.  (The two monoids also
# contain different exponents; the comparison is over the shared ones.)
table_plane = cohomology_table(plane, bound=2, char=2)
table_quadric = cohomology_table(quadric, bound=2, char=2)
print()
print("shared degrees where the mod 2 tables differ:")
for m in sorted(set(table_plane.entries) & set(table_quadric.entries)):
    a, b = table_plane.entries[m], table_quadric.entries[m]
    if a != b:
        print(f"  {m}: plane {a} vs quadric {b}")

# The reason is visible in the facet data.  The quadric facet spans are
# the lines through (1,0) and (1,2); mod 2 these reduce to the same line,
# and V_0, the intersection of all facet spans, is that common line.
print()
for p in (2, 3):
    spans = [facet_subspace(f, p).basis for f in quadric.facets]
    v0 = degree_subspace(quadric, (0, 0), p)
    print(f"mod {p}: facet lines {spans}, dim V_0 = {v0.dim}")

# Mod 3 (and every other prime) the quadric looks exactly like the plane
# again: same origin cohomology, same table.
h2 = cohomology(degree_complex(quadric, (0, 0), 2))
h3 = cohomology(degree_complex(quadric, (0, 0), 3))
print()
print("quadric origin cohomology mod 2:", h2, " mod 3:", h3)

# A three dimensional example with a non simplicial exponent cone: the
# cone over a unit square.  Four facets, and the whole verification chain
# still goes through, including the independent unsplit oracle.
square = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]).dual
print()
print("cone over a square: exponent rays", square.rays)
print(report_text(verify_isomorphism(square, bound=1, p=3)))
table = cohomology_table(square, bound=2, char=2)
sums = [0, 0, 0, 0]
for h in table.entries.values():
    for a, x in enumerate(h):
        sums[a] += x
print("degreewise totals mod 2, box 2:", tuple(sums))
print("unsplit oracle:                ", oracle_full_complex(square, 2, 2))
