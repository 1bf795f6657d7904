"""Exhaustive enumeration of small connected multigraphs and the
equivalence verifier.

Graphs are enumerated up to isomorphism by edge augmentation: the graphs
with m edges are those with m - 1 edges plus one edge (a loop, an edge
between two existing vertices, or a pendant edge to a new vertex), and
each is kept once, in its canonical labelling.  Only the children whose
new edge is top-ranked among their edges are canonicalised (the
canonical deletion of McKay, 1998, as a cheap filter).  Ranks are
isomorphism invariants: loops first, by the degree of their vertex,
then non-loop edges of multiplicity >= 2, by (multiplicity, sorted end
degrees), then pendant edges, by the degree of the other end, then all
other edges, tied; ties are kept.  Every top-ranked edge can be
deleted leaving a connected graph one edge smaller -- a pendant edge
with its leaf; a graph with none of the first three kinds is simple
with minimum degree >= 2, so it has a cycle, whose edges tie -- and
the augmentation that puts it back is kept, so no graph is lost.

The canonical labelling partitions the vertices by (degree, loop count)
and minimises the edge multiset over the label permutations respecting
the partition.  Within a class, twins -- vertices with the same
neighbours over the non-loop edges, counted with multiplicity -- are
swapped by an automorphism, so the search keeps them in order and runs
only the distinct arrangements of its twin groups: the leaves of a star
give one candidate, not a factorial.

The verifier runs, over every enumerated graph and every modulus q up to
a bound, the three faces of the finiteness criterion -- q divides the
circuit invariant, the kernel of the boundary map mod q lies in the
image of the coboundary map, and the q-torsion of the component group is
all of (Z/q)^b1 -- plus the agreement of the circuit invariant read
off the component group with the brute-force gcd over the pairs of
circuits, taken as signed edge vectors (:func:`brute_force_c`), which
finds the circuits one at a time and stops once the gcd is 1.  Any
disagreement is reported as a counterexample.  Each graph's linear
algebra is done once and serves every q: the pairings of its
fundamental cycles give the integer whose divisors are the q of the
homology face (:func:`~nerongraph.component_group.homology_modulus`),
and Phi and b1 are taken once.  Per q only a divisibility test and
Phi[q] remain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .component_group import homology_modulus, is_full_torsion, phi_group
from .errors import BoundsTooLarge
from .graph import MultiGraph, betti1, iter_circuits, signed_common_edges
from .invariants import circuit_invariant_c

MAX_ENUMERATION_EDGES = 9
MAX_ENUMERATION_Q = 12

Pair = tuple[int, int]


def _from_pairs(n: int, pairs: Sequence[Pair]) -> MultiGraph:
    return MultiGraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])


def _twin_classes(n: int, pairs: Sequence[Pair]) -> list[list[list[int]]]:
    """The vertices by (degree, loop count), classes in key order, each
    class split into its groups of twins: vertices whose neighbours over
    the non-loop edges agree as a multiset.

    Twins are never adjacent, since a vertex is not its own neighbour,
    and swapping two of them is an automorphism.
    """
    loops = [0] * n
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        if u == v:
            loops[u] += 1
        else:
            neighbours[u].append(v)
            neighbours[v].append(u)
    by_key: dict[tuple[int, int], dict[tuple[int, ...], list[int]]] = {}
    for i, near in enumerate(neighbours):
        near.sort()
        key = (len(near) + 2 * loops[i], loops[i])
        by_key.setdefault(key, {}).setdefault(tuple(near), []).append(i)
    return [list(by_key[key].values()) for key in sorted(by_key)]


def _twin_placements(sizes: Sequence[int], start: int) -> list[tuple[int, ...]]:
    """The positions start, start + 1, ... given to a class whose members
    come twin group by twin group, with the given group sizes, in every
    way that keeps each group's members in increasing positions.

    Such a placement is a word naming the group at each position; the
    distinct words are run in lexicographic order by the next
    permutation of a multiset.
    """
    word = [g for g, size in enumerate(sizes) for _ in range(size)]
    first = list(itertools.accumulate(sizes, initial=0))
    out = []
    while True:
        placed = [0] * len(word)
        slot = first[:]
        for position, g in enumerate(word, start):
            placed[slot[g]] = position
            slot[g] += 1
        out.append(tuple(placed))
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


@lru_cache(maxsize=32)
def _pair_codes(n: int) -> list[list[int]]:
    """min(x, y) * n + max(x, y) at [x][y]: the code of a vertex pair,
    whose order is the lexicographic order of the sorted pairs."""
    return [[min(x, y) * n + max(x, y) for y in range(n)] for x in range(n)]


def _candidates(n: int, pairs: Sequence[Pair]) -> Iterator[list[int]]:
    """The sorted pair codes of the relabellings that
    :func:`_canonical_pairs` minimises over.

    A relabelling gives each (degree, loops) class the next block of
    labels and keeps the members of each twin group in increasing
    order: any other one is such a relabelling after an automorphism
    that permutes twins, and so gives the same edge multiset.  A
    twin-free class runs through every permutation of its block.
    """
    order: list[int] = []
    options: list[list[tuple[int, ...]]] = []
    for groups in _twin_classes(n, pairs):
        start = len(order)
        order += itertools.chain.from_iterable(groups)
        if len(groups) == len(order) - start:
            options.append(list(itertools.permutations(range(start, len(order)))))
        else:
            options.append(_twin_placements([len(g) for g in groups], start))
    label = [0] * n
    for k, vertex in enumerate(order):
        label[vertex] = k
    local = [(label[u], label[v]) for u, v in pairs]
    codes = _pair_codes(n)
    if all(len(placements) == 1 for placements in options):
        # One relabelling, which places every class in member order.
        yield sorted([codes[a][b] for a, b in local])
        return
    for assignment in itertools.product(*options):
        s = [*itertools.chain.from_iterable(assignment)]
        yield sorted([codes[s[a]][s[b]] for a, b in local])


def _canonical_pairs(n: int, pairs: Sequence[Pair]) -> tuple[Pair, ...]:
    """Least relabelling of the edge multiset over isomorphisms.

    Only permutations preserving the (degree, loops) partition can be
    isomorphisms, so the minimum is taken over those; twins are kept in
    order, which leaves the minimum as it is (:func:`_candidates`).
    Pairs are compared by their integer codes and only the least is
    decoded.
    """
    best = min(_candidates(n, pairs))
    return tuple((code // n, code % n) for code in best)


def _augmentations(n: int, pairs: Sequence[Pair]) -> list[Pair]:
    """The edges (u, v), u <= v <= n, whose addition to the connected
    graph with the given sorted pairs leaves no edge of the child
    outranking the new one; v == n is a pendant edge to a new vertex.

    Ranks, highest first: loops, by the degree of their vertex; non-loop
    edges of multiplicity >= 2, by (multiplicity, sorted end degrees);
    pendant edges (an end of degree 1), by the degree of the other end;
    then every other edge, all tied.  Ties keep the edge.  Each (u, v)
    is decided from the degrees, loop vertices and multiplicities of
    the graph, computed once: the child differs only at u and v.
    """
    degree = [0] * n
    multiplicity: dict[Pair, int] = {}
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
        multiplicity[u, v] = multiplicity.get((u, v), 0) + 1
    loop_degrees = [degree[u] for u, v in multiplicity if u == v]
    if loop_degrees:
        # Only a loop can be top-ranked; a new loop at u has degree + 2.
        top = max(loop_degrees)
        return [(u, u) for u in range(n) if degree[u] + 2 >= top]
    kept = [(u, u) for u in range(n)]  # the child's only loop
    parallel = {edge: k for edge, k in multiplicity.items() if k >= 2}
    for u, v in multiplicity:  # a parallel of an existing edge
        child = degree[:]
        child[u] += 1
        child[v] += 1
        new = (multiplicity[u, v] + 1, *sorted((child[u], child[v])))
        if all((k, *sorted((child[a], child[b]))) <= new
               for (a, b), k in parallel.items() if (a, b) != (u, v)):
            kept.append((u, v))
    if parallel:
        return kept
    # A simple connected graph: a new edge between two of its vertices
    # has both ends of degree >= 2 and ranks last, so it ties with the
    # rest only if every leaf is one of its ends.
    leaves = {}  # leaf: the other end of its edge
    for u, v in pairs:
        if degree[u] == 1:
            leaves[u] = v
        if degree[v] == 1:
            leaves[v] = u
    if len(leaves) <= 2:
        kept += [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in multiplicity and leaves.keys() <= {u, v}
        ]
    for u in range(n):  # a pendant edge at u ranks by degree[u] + 1
        if all(degree[x] + (x == u) <= degree[u] + 1
               for w, x in leaves.items() if w != u):
            kept.append((u, n))
    return kept


def connected_multigraphs(max_edges: int) -> Iterator[MultiGraph]:
    """All connected multigraphs with at most ``max_edges`` edges, up to
    isomorphism; loops and parallel edges included.

    Each stratum is grown from the one before, and a child is
    canonicalised only when its new edge is top-ranked among its edges
    (:func:`_augmentations`; McKay, "Isomorph-free exhaustive
    generation", 1998, used as a filter in front of the canonical
    form).  No graph is lost: every top-ranked edge of a connected
    multigraph C with m >= 1 edges can be deleted leaving a connected
    graph with m - 1 edges -- a loop or a parallel edge as it is, a
    pendant edge together with its leaf, and when C has none of these
    it is simple with minimum degree >= 2, so it has a cycle, and every
    edge ties, a cycle edge included.  The ranks are isomorphism
    invariants, so the augmentation of the previous stratum's canonical
    form of C - e at the image of a top-ranked e is kept, and the set of
    canonical forms gives every graph of the stratum exactly once.

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
            for u, v in _augmentations(n, pairs):
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
    edge vectors of :func:`~nerongraph.graph.iter_circuits`, a circuit
    paired with itself included; 0 when there are none.  Each circuit is
    paired, as it is found, with itself and every one found before it,
    and the search stops once the gcd is 1, which no pairing can change;
    so :class:`~nerongraph.errors.TooManyCircuits` is raised only when
    :data:`~nerongraph.graph.DEFAULT_CIRCUIT_LIMIT` circuits are passed
    before the gcd reaches 1.  Applied to the
    thickness subdivision it gives c of the regular model, independently
    of the component group that
    :func:`~nerongraph.invariants.circuit_invariant_c` reads."""
    c, circuits = 0, []
    for a in iter_circuits(g):
        circuits.append(a)
        c = gcd(c, *(signed_common_edges(a, b) for b in circuits))
        if c == 1:
            break
    return c


def _faces(g: MultiGraph, max_q: int) -> list[tuple[bool, bool]]:
    """(homology face, torsion face) of the criterion for q = 1..max_q.

    :func:`~nerongraph.component_group.homology_modulus`, Phi and b1 are
    computed once and serve every q: the homology face at q is whether q
    divides the modulus, the torsion face whether Phi[q] is (Z/q)^b1,
    read off Phi's invariant factors without building Phi[q].
    """
    h = homology_modulus(g)
    phi, b1 = phi_group(g), betti1(g)
    return [
        (h % q == 0, is_full_torsion(phi, b1, q))
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
