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
from the cycle pairing with the brute-force gcd over all circuits
(:func:`brute_force_c`).  Any disagreement is reported as a
counterexample.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from typing import Iterator, Sequence

from .component_group import homological_criterion, is_full_r_torsion
from .errors import BoundsTooLarge
from .graph import MultiGraph, enumerate_circuits
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


def random_connected_multigraph(
    rng: random.Random,
    max_edges: int = 12,
    max_extra: int | None = None,
    thickness_range: tuple[int, int] | None = None,
    genus_range: tuple[int, int] = (0, 2),
) -> MultiGraph:
    """A random connected multigraph with at most ``max_edges`` edges:
    a random tree plus random extra edges (loops and parallels allowed),
    with optional random thickness and genus decorations."""
    n = rng.randint(1, min(8, max_edges + 1))
    pairs: list[Pair] = []
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.append((u, v))
    room = max_edges - len(pairs)
    if max_extra is not None:
        room = min(room, max_extra)
    for _ in range(rng.randint(0, room) if room > 0 else 0):
        u = rng.randrange(n)
        v = rng.randrange(n)
        pairs.append((min(u, v), max(u, v)))
    genus = {v: rng.randint(*genus_range) for v in range(n)}
    thickness = None
    if thickness_range is not None:
        thickness = {i: rng.randint(*thickness_range) for i in range(len(pairs))}
    return MultiGraph(
        range(n),
        [(i, u, v) for i, (u, v) in enumerate(pairs)],
        vertex_genus=genus,
        edge_thickness=thickness,
    )


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
    the gcd of |signed_common_edges(a, b)| over all pairs of enumerated
    circuits, a circuit paired with itself included; 0 when there are
    none.  Applied to the thickness subdivision it gives c of the
    regular model, independently of the pairing that
    :func:`~nerongraph.invariants.circuit_invariant_c` reads."""
    vectors = [c.cycle_vector() for c in enumerate_circuits(g)]
    return reduce(gcd, (
        abs(a.dot(b)) for i, a in enumerate(vectors) for b in vectors[i:]
    ), 0)


def verify_equivalence(max_edges: int = 6, max_q: int = 6) -> EquivalenceReport:
    """Check the three-way criterion agreement exhaustively.

    For every connected multigraph with at most ``max_edges`` edges (up
    to isomorphism) and every 1 <= q <= ``max_q``, assert that

    * q divides the circuit invariant c,
    * the kernel of the boundary map mod q lies in the image of the
      coboundary map mod q,
    * Phi[q] is isomorphic to (Z/q)^b1

    agree three ways, and that c read from Phi
    (:func:`~nerongraph.invariants.circuit_invariant_c`) agrees with
    brute-force circuit enumeration.  Returns a report carrying any
    counterexamples; an empty list means the equivalence held everywhere.
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
        for q in range(1, max_q + 1):
            by_circuits = c_brute % q == 0
            by_homology = homological_criterion(g, q)
            by_torsion = is_full_r_torsion(g, q)
            report.checks += 1
            if not (by_circuits == by_homology == by_torsion):
                report.counterexamples.append(
                    f"{g!r} {g.edges} q={q}: circuits={by_circuits} "
                    f"homology={by_homology} torsion={by_torsion}"
                )
    return report
