"""Connected multigraphs with decorated vertices and edges, and their circuits.

The graphs here model dual graphs of nodal curves: one vertex per
irreducible component (carrying a geometric genus), one edge per node
(carrying a thickness and a stabilizer order).  Loops and parallel edges
are allowed; every graph is required to be connected.

A :class:`MultiGraph` checks its input and builds, once, the index
tables that every algorithm here and in the sibling modules reads: the
``(tail index, tip index)`` of each edge, the thicknesses and
stabilizers by edge index, the genera by vertex index, and the
breadth-first spanning tree from the least vertex, which is also its
connectivity check (:func:`spanning_tree` returns it).  The
algorithms work on indices; ids appear only in ``vertices``, ``edges``,
:meth:`MultiGraph.edge_index` and the error messages.

The analysis reads everything from that tree, the bridges (one
lowlink scan, :func:`bridges`, which also answers
:func:`is_nonseparating`) and the maximal chains, whose total
thicknesses decide whether the minimal regular model is r-divided; it
builds the fundamental cycle basis only when it reduces the basis's
pairing.

A *circuit* is a closed walk along oriented edges whose interior vertices
are pairwise distinct; a loop alone is a circuit of length 1 and a pair of
parallel edges supports a circuit of length 2.  A circuit, like every
cycle here, is a sparse signed edge vector ``{edge index: +1 or -1}``:
the edges it traverses forwards or backwards.  Its edge set determines
it, and the dot product of two vectors (:func:`signed_common_edges`)
counts the edges the two circuits share, with signs recording whether
the orientations agree.  :func:`iter_circuits` yields the circuits one
at a time, as they are closed, to the brute-force verifier, which stops
once its gcd is 1; :func:`enumerate_circuits` sorts them for the test
oracles and the demos.  Both stop at :data:`DEFAULT_CIRCUIT_LIMIT`
circuits.  The analysis builds no circuit.

Graphs are immutable after construction and all operations are pure
(the vectors they return are fresh dicts), so everything in this module
is safe to share between threads.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DanglingEndpoint,
    Disconnected,
    DuplicateId,
    TooManyCircuits,
    UnknownEdge,
    check_modulus,
    shown,
)

VertexId = int | str
EdgeId = int | str

#: Cap on the circuits of :func:`iter_circuits`, read when it is called;
#: circuit counts grow exponentially and this tool targets desk-scale
#: dual graphs.
DEFAULT_CIRCUIT_LIMIT = 10**6

# How many unreachable vertices a Disconnected error names.
_SHOWN_UNREACHABLE = 3


class Edge(NamedTuple):
    id: EdgeId
    tail: VertexId
    tip: VertexId


class MultiGraph:
    """A connected multigraph with loops, parallel edges and decorations.

    Parameters
    ----------
    vertices:
        Vertex identifiers, in the order that fixes all matrix rows.
        Identifiers must be unique and mutually comparable (all ints or
        all strings) so that "the least vertex" is well defined; ids
        that cannot be compared raise :class:`TypeError` here, when the
        spanning tree is grown from the least vertex.
    edges:
        ``(id, tail, tip)`` triples, in the order that fixes all matrix
        columns.  ``tail == tip`` gives a loop.
    vertex_genus:
        Geometric genus per vertex; missing entries default to 0.
    edge_thickness:
        Node thickness per edge (the exponent in the local equation
        ``zw = pi^eta``); missing entries default to 1.
    edge_stabilizer:
        Order of the cyclic stabilizer at the node of a twisted curve;
        missing entries default to 1.

    The constructor builds, in one pass over the edges, the index tables
    that the algorithms read, each once: ``endpoints``, the ``(tail
    index, tip index)`` of every edge; ``thicknesses`` and
    ``stabilizers`` by edge index; ``genera`` by vertex index; and the
    breadth-first tree that :func:`spanning_tree` returns.  Ids map to
    indices through the order of ``vertices`` and ``edges`` and through
    :meth:`edge_index`.
    """

    __slots__ = (
        "_vertices",
        "_edges",
        "_eindex",
        "endpoints",
        "genera",
        "thicknesses",
        "stabilizers",
        "_tree",
        "_adjacency",
        "_loops_at",
        "__weakref__",
    )

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable[tuple[EdgeId, VertexId, VertexId] | Edge],
        vertex_genus: Mapping[VertexId, int] | None = None,
        edge_thickness: Mapping[EdgeId, int] | None = None,
        edge_stabilizer: Mapping[EdgeId, int] | None = None,
    ) -> None:
        vs = tuple(vertices)
        es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)

        vindex: dict[VertexId, int] = {}
        for v in vs:
            if v in vindex:
                raise DuplicateId(f"duplicate vertex id {shown(repr(v))}")
            vindex[v] = len(vindex)
        eindex: dict[EdgeId, int] = {}
        endpoints = []
        # adjacency[u] lists (edge index, other endpoint index) for non-loop
        # edges, in edge input order; loops are kept separately.
        adjacency: list[list[tuple[int, int]]] = [[] for _ in vs]
        loops_at: list[list[int]] = [[] for _ in vs]
        for i, e in enumerate(es):
            if e.id in eindex:
                raise DuplicateId(f"duplicate edge id {shown(repr(e.id))}")
            eindex[e.id] = i
            ti, hi = vindex.get(e.tail), vindex.get(e.tip)
            if ti is None or hi is None:
                raise DanglingEndpoint(
                    f"edge {shown(repr(e.id))} refers to unknown vertex "
                    f"{shown(repr(e.tail if ti is None else e.tip))}"
                )
            endpoints.append((ti, hi))
            if ti == hi:
                loops_at[ti].append(i)
            else:
                adjacency[ti].append((i, hi))
                adjacency[hi].append((i, ti))
        if not vs:
            raise Disconnected("a graph needs at least one vertex")

        def decorated(
            given: Mapping | None, index: Mapping, default: int, least: int, what: str,
        ) -> tuple[int, ...]:
            table = [default] * len(index)
            for k, value in (given or {}).items():
                i = index.get(k)
                if i is None:
                    raise DanglingEndpoint(f"{what} for unknown id {shown(repr(k))}")
                if not isinstance(value, int) or isinstance(value, bool) or value < least:
                    raise ValueError(
                        f"{what} of {shown(repr(k))} must be an integer >= {least}"
                    )
                table[i] = value
            return tuple(table)

        self._vertices = vs
        self._edges = es
        self._eindex = eindex
        self.endpoints = tuple(endpoints)
        self.genera = decorated(vertex_genus, vindex, 0, 0, "genus")
        self.thicknesses = decorated(edge_thickness, eindex, 1, 1, "thickness")
        self.stabilizers = decorated(edge_stabilizer, eindex, 1, 1, "stabilizer")
        self._adjacency = adjacency
        self._loops_at = loops_at

        self._tree = _breadth_first(adjacency, vindex[min(vs)])
        if len(self._tree) < len(vs) - 1:
            # Name the vertices that the first one listed does not reach.
            reached = _breadth_first(adjacency, 0)
            missing = [v for i, v in enumerate(vs[1:], 1) if i not in reached]
            first = ", ".join(shown(repr(v)) for v in missing[:_SHOWN_UNREACHABLE])
            more = ", ..." if len(missing) > _SHOWN_UNREACHABLE else ""
            raise Disconnected(
                f"graph is not connected; {len(missing)} unreachable "
                f"vertices: {first}{more}"
            )

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edge_index(self, e: EdgeId) -> int:
        try:
            return self._eindex[e]
        except KeyError:
            raise UnknownEdge(f"no edge with id {shown(repr(e))}") from None

    def __repr__(self) -> str:
        return f"MultiGraph({self.n_vertices} vertices, {self.n_edges} edges)"


def _breadth_first(
    adjacency: list[list[tuple[int, int]]], root: int
) -> dict[int, tuple[int, int]]:
    """The breadth-first tree from ``root``, edges scanned in input order:
    ``(parent index, edge index)`` per reached non-root vertex index,
    parents first."""
    tree: dict[int, tuple[int, int]] = {}
    seen = [False] * len(adjacency)
    seen[root] = True
    queue = [root]
    for u in queue:  # the loop reaches the vertices appended to it
        for ei, w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                tree[w] = (u, ei)
                queue.append(w)
    return tree


def betti1(g: MultiGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return g.n_edges - g.n_vertices + 1


def total_genus(g: MultiGraph) -> int:
    """Arithmetic genus of the configuration: sum of the vertex genera
    plus the first Betti number of the graph."""
    return sum(g.genera) + betti1(g)


def is_nonseparating(g: MultiGraph, e: EdgeId) -> bool:
    """True when deleting the edge (keeping its endpoints) leaves the
    graph connected, that is, when it is not one of the :func:`bridges`.
    Loops are always nonseparating."""
    i = g.edge_index(e)
    tail, tip = g.endpoints[i]
    return tail == tip or i not in bridges(g)


def bridges(g: MultiGraph) -> frozenset[int]:
    """Indices of the separating edges (see :func:`is_nonseparating`),
    from one depth-first search with lowlinks (Tarjan, 1974) on an
    explicit stack.  The search skips the edge it arrived by, by edge
    index, so that a parallel edge back to the parent closes a cycle;
    loops are never bridges."""
    adjacency = g._adjacency
    order = [-1] * g.n_vertices  # discovery time
    low = [0] * g.n_vertices
    found = set()
    order[0], clock = 0, itertools.count(1)
    stack = [(0, -1, iter(adjacency[0]))]  # (vertex, arrival edge, neighbours)
    while stack:
        u, arrived, neighbours = stack[-1]
        for ei, w in neighbours:
            if ei == arrived:
                continue
            if order[w] < 0:
                order[w] = low[w] = next(clock)
                stack.append((w, ei, iter(adjacency[w])))
                break
            low[u] = min(low[u], order[w])
        else:
            stack.pop()
            if stack:
                up = stack[-1][0]
                low[up] = min(low[up], low[u])
                if low[u] > order[up]:
                    found.add(arrived)
    return frozenset(found)


def signed_common_edges(a: Mapping[int, int], b: Mapping[int, int]) -> int:
    """Dot product of two signed edge vectors ``{edge index: +1 or -1}``.

    Shared edges count +1 or -1 according to whether the two circuits
    traverse them in the same or in opposite directions, and a circuit
    paired with itself counts its edges.  The sign of the total depends
    on the orientations, so downstream consumers use the absolute value.
    """
    if len(b) < len(a):
        a, b = b, a
    return sum(sign * b[ei] for ei, sign in a.items() if ei in b)


def iter_circuits(g: MultiGraph) -> Iterator[dict[int, int]]:
    """Every circuit of the graph once, as it is closed, as a signed edge
    vector ``{edge index: +1 or -1}`` oriented so that the least edge
    index has +1 and listing its edges in increasing index.

    A circuit's edge set determines it, so a circuit and its reversal
    count once: :func:`_closed_walks` closes each circuit once, so none
    is remembered.  The loops come first, as length-1 circuits; parallel
    edges give length-2 circuits.  Raises :class:`TooManyCircuits` when
    a circuit past the first :data:`DEFAULT_CIRCUIT_LIMIT` is closed.
    """
    limit = DEFAULT_CIRCUIT_LIMIT
    for count, steps in enumerate(_closed_walks(g)):
        if count >= limit:
            raise TooManyCircuits(f"more than {limit} circuits")
        flip = min(steps)[1]  # the direction of the least edge index
        yield {ei: d * flip for ei, d in sorted(steps)}


def _closed_walks(g: MultiGraph) -> Iterator[list[tuple[int, int]]]:
    """The circuits of :func:`iter_circuits` as ``(edge index,
    direction)`` steps: each loop, then the vertex-simple paths from each
    vertex s through vertices > s, closing at s, walked depth first with
    an explicit stack so that a long cycle cannot pass the interpreter's
    recursion limit.  Each circuit arises from its least vertex once per
    direction; only the direction whose first edge index is below its
    closing one is closed."""
    for loops in g._loops_at:
        for ei in loops:
            yield [(ei, 1)]

    endpoints, adjacency = g.endpoints, g._adjacency
    for s in range(g.n_vertices):
        path: list[tuple[int, int, int]] = []  # (edge index, direction, vertex reached)
        stack = [iter(adjacency[s])]
        used_edges: set[int] = set()
        on_path: set[int] = {s}
        while stack:
            u = path[-1][2] if path else s
            for ei, w in stack[-1]:
                if ei in used_edges:
                    continue
                if w == s and path and path[0][0] < ei:
                    direction = 1 if endpoints[ei][0] == u else -1
                    yield [(j, d) for j, d, _ in path] + [(ei, direction)]
                elif w > s and w not in on_path:
                    direction = 1 if endpoints[ei][0] == u else -1
                    path.append((ei, direction, w))
                    used_edges.add(ei)
                    on_path.add(w)
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()
                if path:
                    ei, _, w = path.pop()
                    used_edges.remove(ei)
                    on_path.remove(w)


def enumerate_circuits(g: MultiGraph) -> list[dict[int, int]]:
    """All circuits of :func:`iter_circuits`, sorted by their lists of
    edge indices.  Raises :class:`TooManyCircuits` when more than
    :data:`DEFAULT_CIRCUIT_LIMIT` distinct circuits exist."""
    return sorted(iter_circuits(g), key=sorted)


def spanning_tree(g: MultiGraph) -> Mapping[int, tuple[int, int]]:
    """Breadth-first spanning tree from the least vertex, with edges
    scanned in input order; the graph builds it once, when it checks
    that it is connected, and this returns a read-only view of it.

    It maps every non-root vertex index to its ``(parent vertex index,
    connecting edge index)``; the connecting edges are the tree edges,
    and the table lists the vertices in breadth-first order, so every
    vertex comes after its parent and ``reversed`` lists children first.
    """
    return MappingProxyType(g._tree)


def fundamental_cycle_basis(g: MultiGraph) -> list[dict[int, int]]:
    """One cycle per non-tree edge of the graph's :func:`spanning_tree`,
    as a sparse signed edge vector ``{edge index: +1 or -1}``.

    The cycle of a non-tree edge runs along it from tail to tip, then
    through the tree back to the tail; a loop alone is a cycle.  The
    vectors form an integral basis of the kernel of the boundary map,
    so there are exactly ``betti1(g)`` of them.
    """
    parent = g._tree
    depth = [0] * g.n_vertices
    for child, (up, _) in parent.items():  # parents come first
        depth[child] = depth[up] + 1
    tree = {ei for _, ei in parent.values()}
    endpoints = g.endpoints
    basis = []
    for i, (tail, head) in enumerate(endpoints):
        if i in tree:
            continue
        cycle = {i: 1}
        # Climb from both ends to their common ancestor: the tip side is
        # walked upwards, the tail side downwards.
        while head != tail:
            if depth[head] >= depth[tail]:
                head, ei = parent[head]
                cycle[ei] = 1 if endpoints[ei][1] == head else -1
            else:
                tail, ei = parent[tail]
                cycle[ei] = 1 if endpoints[ei][0] == tail else -1
        basis.append(cycle)
    return basis


def maximal_chains(g: MultiGraph) -> list[list[int]]:
    """Edge indices of the maximal chains of the graph.

    A chain is a path whose interior vertices have degree exactly 2,
    running between vertices of degree != 2 (possibly the same vertex,
    giving a closed chain); when no such branch vertex exists the whole
    graph is a single cycle and counts as one chain.
    """
    adjacency, loops_at = g._adjacency, g._loops_at
    branch = [i for i, (a, loops) in enumerate(zip(adjacency, loops_at))
              if len(a) + 2 * len(loops) != 2]
    if not branch:
        # Connected with all degrees 2: a single cycle (a lone loop and a
        # pair of parallel edges are the degenerate cases).
        return [list(range(g.n_edges))]
    chains = []
    visited: set[int] = set()
    branch_set = set(branch)
    for b in branch:
        for ei in loops_at[b]:
            visited.add(ei)
            chains.append([ei])
        for ei, w in adjacency[b]:
            if ei in visited:
                continue
            visited.add(ei)
            chain = [ei]
            cur = w
            while cur not in branch_set:
                prev_edge, cur = next(
                    (j, x) for j, x in adjacency[cur] if j != chain[-1]
                )
                visited.add(prev_edge)
                chain.append(prev_edge)
            chains.append(chain)
    return chains


def is_r_divided(g: MultiGraph, r: int) -> bool:
    """Whether the dual graph of the minimal regular model (the
    :func:`thickness_subdivision` of ``g``) arises from another graph by
    dividing every edge into exactly r edges.

    Subdividing an edge into r parts inserts r-1 vertices of degree 2,
    so the test reduces to the maximal chains: the regular model is
    r-divided if and only if every maximal chain of ``g`` has total
    thickness divisible by r.  This is Lorenzini's sufficient condition
    for a finite Neron model of the r-torsion.
    """
    check_modulus(r, "r")
    thickness = g.thicknesses
    return all(
        sum(thickness[ei] for ei in chain) % r == 0 for chain in maximal_chains(g)
    )


def thickness_subdivision(g: MultiGraph) -> MultiGraph:
    """The graph with every edge divided into ``thickness(e)`` edges.

    This is the dual graph of the minimal regular model associated to a
    semistable model with the given node thicknesses: a node of thickness
    eta is resolved into a chain of eta - 1 rational curves.  New vertices
    get genus 0 and all new edges thickness 1, so the first Betti number
    and the total genus are preserved.  Vertices and edges are relabelled
    ``0, 1, 2, ...`` deterministically; original vertices come first in
    their input order.

    Returns the graph itself when every thickness is 1.
    """
    if all(t == 1 for t in g.thicknesses):
        return g
    n = g.n_vertices
    edges: list[tuple[int, int, int]] = []
    for (u, v), eta in zip(g.endpoints, g.thicknesses):
        chain = [u, *range(n, n + eta - 1), v]
        n += eta - 1
        for a, b in itertools.pairwise(chain):
            edges.append((len(edges), a, b))
    return MultiGraph(range(n), edges, vertex_genus=dict(enumerate(g.genera)))
