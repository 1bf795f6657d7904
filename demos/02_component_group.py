#!/usr/bin/env python3
"""The component group of a graph and its r-torsion.

The group of connected components of the special fibre of the Neron
model of the Jacobian is a finite abelian group computed from the graph
alone: the cokernel (on degree-zero chains) of the intersection matrix
M = -(boundary o coboundary).  Combinatorialists know it as the critical
group or sandpile group; its order is the number of spanning trees.
"""

from nerongraph import (
    MultiGraph,
    betti1,
    boundary_matrix,
    intersection_matrix,
    is_full_r_torsion,
    homological_criterion,
    phi_group,
    phi_r_torsion,
    smith_normal_form,
    spanning_tree_count,
)

square = MultiGraph(
    ["v0", "v1", "v2", "v3"],
    [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v0")],
)

# The intersection matrix is the negative graph Laplacian (loops ignored).
m = intersection_matrix(square)
print("M(square) =", m)

# Its Smith normal form has exactly one zero on the diagonal (the graph
# is connected); the entries > 1 are the invariant factors of Phi.
print("Smith diagonal:", smith_normal_form(m).diagonal)
print("Phi(square) =", phi_group(square))

# Kirchhoff cross-check: |Phi| equals the number of spanning trees,
# counted here as the determinant of the grounded Laplacian (the
# matrix-tree theorem), with no Smith reduction.
print("spanning trees:", spanning_tree_count(square))

# r-torsion: Phi[r] = (+) Z/gcd(n_i, r).  The Neron model of the
# r-torsion Picard scheme is finite precisely when Phi[r] is as large as
# the graph allows, namely (Z/r)^b1.
for r in (2, 3, 4):
    print(f"Phi[{r}] = {phi_r_torsion(square, r)},  full: {is_full_r_torsion(square, r)}")

# The same condition reads homologically: every cycle mod r must be a
# coboundary mod r.  For the square and r = 4 both hold; for r = 3
# neither does.
print("ker/im criterion at q=4:", homological_criterion(square, 4))
print("ker/im criterion at q=3:", homological_criterion(square, 3))

# A graph of compact type (a tree) has trivial Phi and b1 = 0, so the
# criterion holds for every r.
chain = MultiGraph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
print("\ntree: Phi =", phi_group(chain), " b1 =", betti1(chain),
      " full at r=5:", is_full_r_torsion(chain, 5))

# A single loop is the opposite extreme: Phi is trivial but b1 = 1, so
# no r > 1 can be full -- the classical non-finite example.
loop = MultiGraph(["v"], [("e", "v", "v")])
print("loop: boundary =", boundary_matrix(loop), " full at r=2:",
      is_full_r_torsion(loop, 2))
