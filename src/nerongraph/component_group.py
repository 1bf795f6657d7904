"""The component group of a graph, its torsion, and the homological
finiteness criterion.

For a connected graph the group Phi is the cokernel of the intersection
matrix M restricted to degree-zero 0-chains; it is the group of connected
components of the special fibre of the Neron model of the Jacobian, also
known as the critical group or sandpile group in combinatorics.  Its
order is the number of spanning trees, which gives an independent oracle
by the matrix-tree theorem: the determinant of the grounded Laplacian.

The homological criterion asks whether every cycle mod q is a coboundary
mod q.  It holds at q exactly when q divides :func:`homology_modulus`,
the gcd of the pairings of the fundamental cycles, which is checked in
integers against the cycles' tree potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd, prod
from .errors import BoundsTooLarge, MalformedSpectrum, check_modulus
from .graph import (
    MultiGraph, betti1, fundamental_cycle_basis, signed_common_edges, spanning_tree,
)
from .homology import MAX_PRESENTATION_DIMENSION, intersection_matrix, smith_normal_form


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group as its list of invariant factors.

    The factors are the integers n_1 | n_2 | ... >= 2; the empty tuple is
    the trivial group.  Factors equal to 1 are never stored.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for n in fs:
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ValueError(f"invariant factors must be integers >= 2, got {n!r}")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {fs}")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def torsion(self, r: int) -> "AbelianGroup":
        """The r-torsion subgroup: for (+) Z/n_i it is (+) Z/gcd(n_i, r),
        with factors collapsing to 1 dropped; the divisibility chain
        survives the gcd."""
        return AbelianGroup(
            tuple(d for n in self.invariant_factors if (d := gcd(n, r)) > 1)
        )

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in self.invariant_factors)


def phi_group(g: MultiGraph) -> AbelianGroup:
    """The component group Phi of a connected graph.

    Computed from the Smith diagonal of the intersection matrix: for a
    connected graph on h vertices the diagonal is (n_1, ..., n_{h-1}, 0)
    with all n_i nonzero, and the entries greater than 1 are the
    invariant factors.  Raises :class:`BoundsTooLarge`, before any
    matrix is built, when ``n_vertices - 1``, the dimension of the
    presentation, is past :data:`MAX_PRESENTATION_DIMENSION`.
    """
    if g.n_vertices - 1 > MAX_PRESENTATION_DIMENSION:
        raise BoundsTooLarge(
            f"vertices: {g.n_vertices} vertices give a presentation of the "
            f"component group of dimension {g.n_vertices - 1}, past the limit "
            f"of {MAX_PRESENTATION_DIMENSION}"
        )
    diag = smith_normal_form(intersection_matrix(g)).diagonal
    zeros = sum(1 for d in diag if d == 0)
    if zeros != 1:
        raise MalformedSpectrum(
            f"intersection matrix has {zeros} zero invariant factors, expected 1"
        )
    return AbelianGroup(tuple(d for d in diag if d > 1))


#: Most non-loop edges :func:`spanning_tree_count` takes.  A connected
#: graph has at most one vertex more, so this bounds the dimension of
#: the determinant, and with it the work.
MAX_TREE_COUNT_EDGES = 200


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning trees, by Kirchhoff's matrix-tree theorem: the
    determinant of the Laplacian with vertex 0 grounded.

    The Laplacian is filled here from ``g.endpoints``, loops skipped,
    and the determinant taken by fraction-free elimination (Bareiss,
    1968), so that this shares nothing with the Smith-form route to
    |Phi| and the two cross-validate each other.  The grounded Laplacian
    of a connected graph is positive definite, so every pivot is a
    positive leading principal minor and no row is swapped.  Raises
    :class:`BoundsTooLarge` past :data:`MAX_TREE_COUNT_EDGES` non-loop
    edges.
    """
    edges = [(u, v) for u, v in g.endpoints if u != v]
    if len(edges) > MAX_TREE_COUNT_EDGES:
        raise BoundsTooLarge(
            f"spanning_tree_count takes at most {MAX_TREE_COUNT_EDGES} "
            f"non-loop edges, got {len(edges)}"
        )
    n = g.n_vertices
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    m = [row[1:] for row in m[1:]]  # ground vertex 0
    previous = 1
    for k in range(n - 2):
        pivot, top = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            a = row[k]
            row[k + 1:] = [(x * pivot - a * y) // previous for x, y in zip(row[k + 1:], top)]
        previous = pivot
    return m[-1][-1] if m else 1


def phi_r_torsion(g: MultiGraph, r: int) -> AbelianGroup:
    """The r-torsion subgroup Phi[r] (see :meth:`AbelianGroup.torsion`)."""
    check_modulus(r, "r")
    return phi_group(g).torsion(r)


def is_full_torsion(phi: AbelianGroup, b1: int, r: int) -> bool:
    """Whether the r-torsion of the component group ``phi`` is (Z/r)^b1.

    Phi[r] is the sum of Z/gcd(n_i, r) over the invariant factors n_i,
    so it is (Z/r)^b1 exactly when r = 1, or when Phi has b1 invariant
    factors and r divides each of them.
    """
    factors = phi.invariant_factors
    return r == 1 or (len(factors) == b1 and all(n % r == 0 for n in factors))


def is_full_r_torsion(g: MultiGraph, r: int) -> bool:
    """Whether Phi[r] is isomorphic to (Z/r)^b1, i.e. has exactly b1
    invariant factors all equal to r.  This is the finiteness condition
    for the Neron model of the r-torsion of the Picard scheme."""
    check_modulus(r, "r")
    return is_full_torsion(phi_group(g), betti1(g), r)


def homology_modulus(g: MultiGraph) -> int:
    """The integer h such that every cycle mod q is a coboundary mod q
    exactly when q divides h; 0 when b1 = 0, so that every q passes.

    The cuts are the orthogonal complement of the cycles (Bacher, de la
    Harpe and Nagnibeda, 1997), so h is the gcd of the pairings
    <z_i, z_j>, i <= j, of the fundamental cycles, thicknesses ignored:
    the circuit invariant c of the graph as given.  Both directions are
    checked in integers.  Each z_j must be a cycle meeting one non-tree
    edge, its own, with +-1, so <delta x, z_j> = <x, boundary z_j> = 0
    for every x and q not dividing <z_i, z_j> proves z_i no coboundary
    mod q.  The tree potential x_j (0 at the root, stepping by z_j along
    the tree) has delta x_j - z_j zero on the tree and -<z_j, z_f> at
    each non-tree edge f, so z_j is a coboundary mod every q dividing
    these; their gcd, from the potentials alone, must be h.  Each gcd
    stops once it is 1, which no further term can change, so both
    compare as if taken in full: a residue gcd of 1 against h != 1
    still raises.  :class:`ArithmeticError` means the basis or its
    pairings were wrong.
    """
    parent, endpoints = spanning_tree(g), g.endpoints
    tree = {ei for _, ei in parent.values()}
    basis = fundamental_cycle_basis(g)
    chords, bad = set(), False
    for z in basis:
        boundary = [0] * g.n_vertices
        for ei, x in z.items():
            boundary[endpoints[ei][1]] += x
            boundary[endpoints[ei][0]] -= x
        own = [ei for ei in z if ei not in tree]
        bad = bad or any(boundary) or len(own) != 1 or abs(z[own[0]]) != 1
        chords.update(own)
    if bad or not len(basis) == len(chords) == betti1(g):
        raise ArithmeticError(
            "homology_modulus: not one fundamental cycle per non-tree edge"
        )
    h = 0
    for a, b in combinations_with_replacement(basis, 2):
        h = gcd(h, signed_common_edges(a, b))
        if h == 1:
            break  # a gcd of 1 cannot change
    residues = 0
    for z in basis:
        x = [0] * g.n_vertices
        for child, (up, ei) in parent.items():  # parents come first
            step = z.get(ei, 0)
            x[child] = x[up] + step if endpoints[ei][1] == child else x[up] - step
        for f in chords:
            tail, tip = endpoints[f]
            residues = gcd(residues, x[tip] - x[tail] - z.get(f, 0))
        if residues == 1:
            break
    if residues != h:
        raise ArithmeticError(
            f"homology_modulus: the pairings give {h}, the tree potentials {residues}"
        )
    return h


def homological_criterion(g: MultiGraph, q: int) -> bool:
    """Whether ker(boundary mod q) is contained in im(coboundary mod q).

    This is the graph-theoretic form of the finiteness criterion; it is
    equivalent both to q dividing every signed circuit intersection and
    to Phi[q] being all of (Z/q)^b1.  It reads :func:`homology_modulus`.
    """
    check_modulus(q, "q")
    return homology_modulus(g) % q == 0
