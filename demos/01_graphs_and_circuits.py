#!/usr/bin/env python3
"""Dual graphs, circuits, and the two combinatorial gcd invariants.

A reduction of a smooth curve is encoded by the dual graph of its
special fibre: a vertex per irreducible component, an edge per node.
This script builds a few such graphs, enumerates their circuits, and
computes the circuit invariant c and the thickness invariant t that
control the finiteness of Neron models.
"""

from nerongraph import (
    MultiGraph,
    betti1,
    circuit_invariant_c,
    enumerate_circuits,
    fundamental_cycle_basis,
    is_nonseparating,
    is_r_divided,
    signed_common_edges,
    thickness_invariant_t,
    thickness_subdivision,
    total_genus,
)
from nerongraph.homology import cycle_pairing_matrix

# Two components meeting in two nodes: the "banana".  Both edges run
# from v0 to v1; orientations are bookkeeping, nothing depends on them.
banana = MultiGraph(
    ["v0", "v1"],
    [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    vertex_genus={"v0": 1, "v1": 1},
)

print("banana:", banana)
print("  b1 =", betti1(banana), " total genus =", total_genus(banana))
print("  nonseparating edges:",
      [e.id for e in banana.edges if is_nonseparating(banana, e.id)])

# The banana has a single circuit: around through e0, back through e1.
# A circuit is a signed edge vector {edge index: +1 or -1}, +1 where it
# walks an edge from tail to tip; the least edge index is walked
# forwards, so the banana's circuit prints as {0: 1, 1: -1}.
circuits = enumerate_circuits(banana)
print("  circuits:", circuits)

# Pairing a circuit with itself counts its edges; two circuits pair to
# the signed number of shared edges, the dot product of their vectors.
c0 = circuits[0]
print("  <C, C> =", signed_common_edges(c0, c0))

# The circuit invariant c: gcd of all pairwise (and self) intersection
# numbers.  For the banana it is 2; for a tree there are no circuits and
# c = 0 by convention.
print("  c(banana) =", circuit_invariant_c(banana))

# A graph with two independent circuits sharing a chain of two edges:
# three chains of length 2 between a north and a south pole.
theta_fan = MultiGraph(
    ["n", "a", "b", "c", "s"],
    [("e0", "n", "a"), ("e1", "n", "b"), ("e2", "n", "c"),
     ("e3", "a", "s"), ("e4", "b", "s"), ("e5", "c", "s")],
)
print("\ntheta-fan:", theta_fan)
print("  b1 =", betti1(theta_fan))
# Each circuit is one of the three squares; the edges are indexed e0 = 0
# to e5 = 5, and every pair of squares shares two edges.
for x in enumerate_circuits(theta_fan):
    print("   ", x)
# No circuit list is needed: a fundamental basis has one cycle per edge
# outside a spanning tree, a signed edge vector of the same form, and c
# is the gcd of the entries of its (thickness-weighted) Gram
# matrix.  That matrix presents the component group Phi with b1
# generators, so the analysis reads c off Phi instead of building it.
cycles = fundamental_cycle_basis(theta_fan)
print("  cycle basis:", cycles, "(b1 of them)")
print("  Gram matrix of the basis:", cycle_pairing_matrix(theta_fan, cycles))
print("  c(theta-fan) =", circuit_invariant_c(theta_fan))

# Thickness: each node of the reduction carries the exponent of its
# local equation zw = pi^eta.  The thickness invariant t is the gcd over
# the nonseparating nes; separating nodes do not matter.
thick = MultiGraph(
    ["v0", "v1"],
    [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    edge_thickness={"e0": 4, "e1": 6},
)
print("\nbanana with thicknesses (4, 6):  t =", thickness_invariant_t(thick))

# Resolving the thick nodes subdivides each edge into eta parts and
# yields the dual graph of the minimal regular model, to which c refers.
# The pairing weights each edge by its thickness, so c comes out the same
# without building the subdivision.
regular = thickness_subdivision(thick)
print("  minimal regular model:", regular, " c =", circuit_invariant_c(regular))
print("  c from the weighted pairing of the banana itself =",
      circuit_invariant_c(thick))

# r-divided graphs: obtained from some graph by cutting every edge into
# r equal chains.  The banana is the 2-division of a single loop.  Like
# c, the test refers to the regular model: a chain counts its thickness.
print("\nbanana is 2-divided:", is_r_divided(banana, 2))
print("theta-fan is 2-divided:", is_r_divided(theta_fan, 2))
# A banana with thicknesses (1, 2) resolves to a triangle: c = 3, and
# the triangle is not 2-divided although the bare banana is.
uneven = MultiGraph(["v0", "v1"], [("e0", "v0", "v1"), ("e1", "v0", "v1")],
                    edge_thickness={"e0": 1, "e1": 2})
print("banana with thicknesses (1, 2): c =", circuit_invariant_c(uneven),
      " 2-divided:", is_r_divided(uneven, 2))
