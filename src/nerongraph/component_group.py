"""The component group of a graph, its torsion, and the homological
finiteness criterion.

For a connected graph the group Phi is the cokernel of the intersection
matrix M restricted to degree-zero 0-chains; it is the group of connected
components of the special fibre of the Neron model of the Jacobian, also
known as the critical group or sandpile group in combinatorics.  Its
order is the number of spanning trees, which gives an independent oracle
via deletion-contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from .errors import BoundsTooLarge, MalformedSpectrum
from .graph import MultiGraph, betti1
from .homology import (
    SmithDecomposition,
    boundary_matrix,
    intersection_matrix,
    smith_normal_form,
)


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
    invariant factors.
    """
    diag = smith_normal_form(intersection_matrix(g)).diagonal
    zeros = sum(1 for d in diag if d == 0)
    if zeros != 1:
        raise MalformedSpectrum(
            f"intersection matrix has {zeros} zero invariant factors, expected 1"
        )
    return AbelianGroup(tuple(d for d in diag if d > 1))


#: Most non-loop edges :func:`spanning_tree_count` takes; its recursion
#: goes one level deeper per edge.
MAX_TREE_COUNT_EDGES = 200


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning trees, by deletion-contraction.

    Loops are deleted and bridges contracted; the recursion is memoised
    on the vertex set and edge multiset.  This is deliberately
    independent of the Smith-form route to |Phi|, so the two can
    cross-validate each other (the matrix-tree theorem).  Raises
    :class:`BoundsTooLarge` past :data:`MAX_TREE_COUNT_EDGES` non-loop
    edges.
    """
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.endpoints if u != v))
    if len(edges) > MAX_TREE_COUNT_EDGES:
        raise BoundsTooLarge(
            f"spanning_tree_count takes at most {MAX_TREE_COUNT_EDGES} "
            f"non-loop edges, got {len(edges)}"
        )
    vertices = frozenset(range(g.n_vertices))
    cache: dict[tuple, int] = {}

    def connects(edges_left, start, goal) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for a, b in edges_left:
                if a == u and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                elif b == u and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        return goal in seen

    def count(verts: frozenset, edges: tuple) -> int:
        if not edges:
            return 1 if len(verts) <= 1 else 0
        key = (verts, edges)
        if key in cache:
            return cache[key]
        (u, v), rest = edges[0], edges[1:]
        # Contract: relabel v -> u, drop the loops this creates.
        relabelled = []
        for a, b in rest:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                relabelled.append((min(a2, b2), max(a2, b2)))
        contracted = tuple(sorted(relabelled))
        merged = count(verts - {v}, contracted)
        if connects(rest, u, v):
            result = count(verts, rest) + merged
        else:   # bridge: deletion contributes nothing
            result = merged
        cache[key] = result
        return result

    return count(vertices, edges)


def phi_r_torsion(g: MultiGraph, r: int) -> AbelianGroup:
    """The r-torsion subgroup Phi[r] (see :meth:`AbelianGroup.torsion`)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    return phi_group(g).torsion(r)


def is_full_torsion(torsion: AbelianGroup, b1: int, r: int) -> bool:
    """Whether the r-torsion subgroup ``torsion`` of Phi is (Z/r)^b1:
    exactly b1 invariant factors, all equal to r (none when r = 1)."""
    return torsion.invariant_factors == ((r,) * b1 if r > 1 else ())


def is_full_r_torsion(g: MultiGraph, r: int) -> bool:
    """Whether Phi[r] is isomorphic to (Z/r)^b1, i.e. has exactly b1
    invariant factors all equal to r.  This is the finiteness condition
    for the Neron model of the r-torsion of the Picard scheme."""
    return is_full_torsion(phi_r_torsion(g, r), betti1(g), r)


def cycles_are_coboundaries(
    boundary: SmithDecomposition, coboundary: SmithDecomposition, q: int
) -> bool:
    """Whether ker(boundary mod q) lies in im(coboundary mod q), given the
    Smith decompositions of the two maps.  For a graph the coboundary is
    ``boundary.transposed()``, so one elimination serves both maps."""
    return coboundary.contains_mod(boundary.kernel_mod(q), q)


def homological_criterion(g: MultiGraph, q: int) -> bool:
    """Whether ker(boundary mod q) is contained in im(coboundary mod q).

    This is the graph-theoretic form of the finiteness criterion; it is
    equivalent both to q dividing every signed circuit intersection and
    to Phi[q] being all of (Z/q)^b1.
    """
    boundary = smith_normal_form(boundary_matrix(g))
    return cycles_are_coboundaries(boundary, boundary.transposed(), q)
