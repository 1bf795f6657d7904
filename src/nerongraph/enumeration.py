"""Exhaustive enumeration of small connected multigraphs and the
equivalence verifier.

Graphs are enumerated up to isomorphism by edge augmentation: the graphs
with m edges are those with m - 1 edges plus one edge (a loop, an edge
between two existing vertices, or a pendant edge to a new vertex), and
each is kept once, in its canonical labelling.  The canonical labelling
partitions the vertices by (degree, loop count) and minimises the edge
multiset over the label permutations respecting the partition.

The verifier runs, over every enumerated graph and every modulus q up to
a bound, the three faces of the finiteness criterion -- q divides the
circuit invariant, the kernel of the boundary map mod q lies in the
image of the coboundary map, and the q-torsion of the component group is
all of (Z/q)^b1 -- plus the agreement of the circuit invariant read
off the component group with the brute-force gcd over all pairs of
circuits, taken as signed edge vectors (:func:`brute_force_c`).  Any
disagreement is reported as a counterexample.  Each graph's linear
algebra is done once and serves every q: one elimination of its
boundary matrix gives the integer whose divisors are the q of the
homology face (:func:`~nerongraph.component_group.homology_modulus`),
and Phi and b1 are taken once.  Per q only a divisibility test and
Phi[q] remain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from typing import Iterator, Sequence

from .component_group import homology_modulus, is_full_torsion, phi_group
from .errors import BoundsTooLarge
from .graph import MultiGraph, betti1, enumerate_circuits, signed_common_edges
from .invariants import circuit_invariant_c

MAX_ENUMERATION_EDGES = 7
MAX_ENUMERATION_Q = 12

Pair = tuple[int, int]


def _from_pairs(n: int, pairs: Sequence[Pair]) -> MultiGraph:
    return MultiGraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])


def _vertex_classes(n: int, pairs: Sequence[Pair]) -> list[list[int]]:
    degree = [0] * n
    loops = [0] * n
    for u, v in pairs:
        if u == v:
            loops[u] += 1
            degree[u] += 2
        else:
            degree[u] += 1
            degree[v] += 1
    by_invariant: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        by_invariant.setdefault((degree[i], loops[i]), []).append(i)
    return [by_invariant[key] for key in sorted(by_invariant)]


def _canonical_pairs(n: int, pairs: Sequence[Pair]) -> tuple[Pair, ...]:
    """Least relabelling of the edge multiset over isomorphisms.

    Only permutations preserving the (degree, loops) partition can be
    isomorphisms, so the minimum is taken over those.
    """
    classes = _vertex_classes(n, pairs)
    positions: list[list[int]] = []
    start = 0
    for cls in classes:
        positions.append(list(range(start, start + len(cls))))
        start += len(cls)
    best: tuple[Pair, ...] | None = None
    sigma = [0] * n
    for assignment in itertools.product(*(itertools.permutations(p) for p in positions)):
        for cls, placed in zip(classes, assignment):
            for vertex, position in zip(cls, placed):
                sigma[vertex] = position
        candidate = tuple(
            sorted(
                (sigma[u], sigma[v]) if sigma[u] <= sigma[v] else (sigma[v], sigma[u])
                for u, v in pairs
            )
        )
        if best is None or candidate < best:
            best = candidate
    if best is None:  # the product always holds at least one assignment
        raise ValueError("no relabelling of the edge multiset was tried")
    return best


def connected_multigraphs(max_edges: int) -> Iterator[MultiGraph]:
    """All connected multigraphs with at most ``max_edges`` edges, up to
    isomorphism; loops and parallel edges included.

    Each stratum is grown from the one before: every connected multigraph
    with m >= 1 edges is one with m - 1 edges plus one edge, since deleting
    an edge on a cycle, or the edge of a leaf, leaves it connected.  So
    adding to each graph of the previous stratum each loop, each edge
    between two of its vertices and each pendant edge to a new vertex, and
    keeping one canonical form per isomorphism class, gives every graph of
    the stratum exactly once.

    Vertices are labelled 0..n-1 and edges 0..m-1 in the canonical order
    of :func:`_canonical_pairs`; the graphs are yielded by edge count, and
    within an edge count sorted by (vertex count, edge pairs), so the
    stream is deterministic.
    """
    layer: set[tuple[int, tuple[Pair, ...]]] = {(1, ())}
    yield _from_pairs(1, ())
    for _ in range(max_edges):
        grown: set[tuple[int, tuple[Pair, ...]]] = set()
        for n, pairs in layer:
            for u in range(n):
                for v in range(u, n + 1):  # v == n: a pendant edge to a new vertex
                    size = n + (v == n)
                    grown.add((size, _canonical_pairs(size, pairs + ((u, v),))))
        layer = grown
        for n, pairs in sorted(layer):
            yield _from_pairs(n, pairs)


@dataclass
class EquivalenceReport:
    """Outcome of one exhaustive verification run."""

    max_edges: int
    max_q: int
    graphs_by_edges: dict[int, int] = field(default_factory=dict)
    checks: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def total_graphs(self) -> int:
        return sum(self.graphs_by_edges.values())

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def brute_force_c(g: MultiGraph) -> int:
    """The circuit invariant of the graph as given, thicknesses ignored:
    the gcd of |signed_common_edges(a, b)| over all pairs of the signed
    edge vectors of :func:`~nerongraph.graph.enumerate_circuits`, a
    circuit paired with itself included; 0 when there are none.  Applied
    to the thickness subdivision it gives c of the regular model,
    independently of the component group that
    :func:`~nerongraph.invariants.circuit_invariant_c` reads."""
    circuits = enumerate_circuits(g)
    return reduce(gcd, (
        abs(signed_common_edges(a, b))
        for i, a in enumerate(circuits) for b in circuits[i:]
    ), 0)


def _faces(g: MultiGraph, max_q: int) -> list[tuple[bool, bool]]:
    """(homology face, torsion face) of the criterion for q = 1..max_q.

    :func:`~nerongraph.component_group.homology_modulus`, Phi and b1 are
    computed once and serve every q: the homology face at q is whether q
    divides the modulus, the torsion face compares Phi[q] with
    (Z/q)^b1.
    """
    h = homology_modulus(g)
    phi, b1 = phi_group(g), betti1(g)
    return [
        (h % q == 0, is_full_torsion(phi.torsion(q), b1, q))
        for q in range(1, max_q + 1)
    ]


def verify_equivalence(max_edges: int = 6, max_q: int = 6) -> EquivalenceReport:
    """Check the three-way criterion agreement exhaustively.

    For every connected multigraph with at most ``max_edges`` edges (up
    to isomorphism) and every 1 <= q <= ``max_q``, assert that

    * q divides the circuit invariant c, as :func:`brute_force_c`
      computes it from the enumerated circuits,
    * the kernel of the boundary map mod q lies in the image of the
      coboundary map mod q,
    * Phi[q] is isomorphic to (Z/q)^b1

    agree three ways, and that c read from Phi
    (:func:`~nerongraph.invariants.circuit_invariant_c`) agrees with the
    brute-force c.  Returns a report carrying any counterexamples; an
    empty list means the equivalence held everywhere.
    """
    if not 1 <= max_edges <= MAX_ENUMERATION_EDGES:
        raise BoundsTooLarge(
            f"max_edges must be between 1 and {MAX_ENUMERATION_EDGES}"
        )
    if not 1 <= max_q <= MAX_ENUMERATION_Q:
        raise BoundsTooLarge(f"max_q must be between 1 and {MAX_ENUMERATION_Q}")
    report = EquivalenceReport(max_edges=max_edges, max_q=max_q)
    for g in connected_multigraphs(max_edges):
        report.graphs_by_edges[g.n_edges] = report.graphs_by_edges.get(g.n_edges, 0) + 1
        c_phi = circuit_invariant_c(g)
        c_brute = brute_force_c(g)
        if c_phi != c_brute:
            report.counterexamples.append(
                f"{g!r} {g.edges}: c from Phi = {c_phi}, brute-force c = {c_brute}"
            )
        for q, (by_homology, by_torsion) in enumerate(_faces(g, max_q), 1):
            by_circuits = c_brute % q == 0
            report.checks += 1
            if not (by_circuits == by_homology == by_torsion):
                report.counterexamples.append(
                    f"{g!r} {g.edges} q={q}: circuits={by_circuits} "
                    f"homology={by_homology} torsion={by_torsion}"
                )
    return report
