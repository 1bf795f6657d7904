"""The component group of a graph, its torsion, and the homological
finiteness criterion.

For a connected graph the group Phi is the cokernel of the intersection
matrix M restricted to degree-zero 0-chains; it is the group of connected
components of the special fibre of the Neron model of the Jacobian, also
known as the critical group or sandpile group in combinatorics.  Its
order is the number of spanning trees, which gives an independent oracle
via deletion-contraction.

The homological criterion asks whether every cycle mod q is a coboundary
mod q.  :func:`homology_modulus` answers it for every q at once: one
elimination of the boundary matrix gives an integer h, checked in
integers, and the criterion holds at q exactly when q divides h.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from . import homology
from .errors import BoundsTooLarge, MalformedSpectrum
from .graph import MultiGraph, betti1
from .homology import boundary_matrix, intersection_matrix, smith_normal_form


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
    if r < 1:
        raise ValueError("r must be a positive integer")
    return is_full_torsion(phi_group(g), betti1(g), r)


def homology_modulus(g: MultiGraph) -> int:
    """The integer h such that every cycle mod q is a coboundary mod q
    exactly when q divides h; 0 when b1 = 0, so that every q passes.

    One elimination U B V = D of the boundary matrix B answers every q.
    D must be diag(1, ..., 1, 0, ...) with rho = |V| - 1 ones, as it is
    for every connected graph; then the columns v_j of V with j >= rho
    are a Z-basis of ker B, and V^T C U^T = D^T for the coboundary
    C = B^T.  With w_j = V^T v_j, C x = v_j (mod q) is solvable exactly
    when q divides every w_j[i] with i >= rho, and
    z_j = U^T (w_j[0], ..., w_j[rho - 1], 0, ...) solves it for every
    such q.  So h is the gcd of those entries, which are the pairings
    v_i . v_j of the kernel basis: h is the circuit invariant c of the
    graph as given, thicknesses ignored.

    Each answer is checked in integers: B v_j = 0, and every entry of
    C z_j - v_j is divisible by h (zero when h = 0), which covers every
    q dividing h at once.  :class:`ArithmeticError` means the
    decomposition was wrong.
    """
    u, d, v = homology._eliminate(boundary_matrix(g))
    diagonal = [d[i, i] for i in range(min(d.rows, d.cols))]
    rank = next((i for i, x in enumerate(diagonal) if x != 1), len(diagonal))
    if rank != g.n_vertices - 1 or any(diagonal[rank:]):
        raise ArithmeticError(
            "homology_modulus: the boundary's Smith diagonal is not "
            "|V| - 1 ones then zeros"
        )
    vt, ut = v.transpose(), u.transpose()
    v_columns = [vt.row(j) for j in range(vt.rows)]
    u_columns = [ut.row(k) for k in range(ut.rows)]
    kernel = v_columns[rank:]
    pairings = [[sum(map(mul, c, v_j)) for c in v_columns] for v_j in kernel]
    h = 0
    for w_j in pairings:
        h = gcd(h, *w_j[rank:])
    # B and C are applied from the edge endpoints, as boundary_matrix
    # fills them: a loop's column of B is zero.
    endpoints = g.endpoints
    for v_j, w_j in zip(kernel, pairings):
        y = w_j[:rank]
        z_j = [sum(map(mul, c, y)) for c in u_columns]
        cycle = [0] * g.n_vertices
        for (tail, tip), x in zip(endpoints, v_j):
            cycle[tip] += x
            cycle[tail] -= x
        residue = [z_j[tip] - z_j[tail] - x for (tail, tip), x in zip(endpoints, v_j)]
        if any(cycle) or any(r % h if h else r for r in residue):
            raise ArithmeticError(
                "homology_modulus: the boundary's decomposition gave a "
                "non-cycle or a non-solution"
            )
    return h


def homological_criterion(g: MultiGraph, q: int) -> bool:
    """Whether ker(boundary mod q) is contained in im(coboundary mod q).

    This is the graph-theoretic form of the finiteness criterion; it is
    equivalent both to q dividing every signed circuit intersection and
    to Phi[q] being all of (Z/q)^b1.  It reads :func:`homology_modulus`.
    """
    homology._check_modulus(q)
    return homology_modulus(g) % q == 0
