#!/usr/bin/env python3
"""Roots of a line bundle: torsor finiteness and torsion counts.

Beyond r-torsion bundles (roots of the trivial bundle), the same
combinatorics decides when the Neron model of the torsor of r-th roots
of a given bundle is finite: the group criterion must hold AND the
bundle's multidegree must lie in the image of the intersection matrix
modulo r, i.e. some extension of the bundle has degree divisible by r
on every component.
"""

from nerongraph import (
    MultiGraph,
    ReductionData,
    intersection_matrix,
    solve_mod,
    torsion_count_special,
    torsion_count_twisted,
    torsor_neron_finite,
    twisted_roots_finite,
)

banana = MultiGraph(
    ["v0", "v1"],
    [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    vertex_genus={"v0": 1, "v1": 1},
)

# Square roots (r = 2) on the banana.  Any extension of a bundle across
# the two components has degrees of a fixed total parity; twisting by
# components moves the multidegree by the image of M, which modulo 2 is
# zero here.  So both degrees even -> finite; both odd -> not finite.
m = intersection_matrix(banana)
print("M(banana) =", m, " image mod 2 contains (1,1):",
      solve_mod(m, (1, 1), 2) is not None)

for degrees in ((2, 0), (1, -1)):
    data = ReductionData(
        graph=banana, r=2, multidegree=dict(zip(["v0", "v1"], degrees))
    )
    print(f"multidegree {degrees}: torsor Neron model finite =",
          torsor_neron_finite(data))

# Counting.  On the nodal curve itself there are r^(2g - b1) r-torsion
# bundles, fewer than the r^(2g) of a smooth curve -- the loss is the
# kernel of the boundary map, of size r^b1.
g = banana
print("\ntorsion bundle counts on the banana (genus 3):")
for r in (2, 3):
    print(f"  r={r}: special fibre {torsion_count_special(g, r)}, "
          f"generic r^(2g) = {r ** (2 * 3)}")

# A twisted curve with stabilizer of order r at every node recovers the
# full count: r^(2g - b1) bundles from the coarse curve times r^b1
# gluing classes.
twisted = MultiGraph(
    ["v0", "v1"],
    [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    vertex_genus={"v0": 1, "v1": 1},
    edge_stabilizer={"e0": 2, "e1": 2},
)
print("\ntwisted banana, all stabilizers 2:",
      torsion_count_twisted(twisted, 2), "square roots of O")

# The stabilizer criterion in general: r must divide the stabilizer at
# every nonseparating node, and stabilizer * side-degree at separating
# ones.  Here the barbell's bridge is separating with side degree 3.
barbell = MultiGraph(
    ["v0", "v1"],
    [("l0", "v0", "v0"), ("b", "v0", "v1"), ("l1", "v1", "v1")],
    edge_stabilizer={"l0": 3, "l1": 3, "b": 1},
)
data = ReductionData(graph=barbell, r=3, multidegree={"v0": 3, "v1": 0})
print("barbell, r=3, side degree 3: twisted roots finite =",
      twisted_roots_finite(data))
