import itertools
import random

import pytest
import nerongraph.graph
from hypothesis import given, settings
from hypothesis import strategies as st

from nerongraph import (
    DanglingEndpoint,
    Disconnected,
    DuplicateId,
    MultiGraph,
    TooManyCircuits,
    UnknownEdge,
    betti1,
    boundary_matrix,
    enumerate_circuits,
    fundamental_cycle_basis,
    is_nonseparating,
    is_r_divided,
    signed_common_edges,
    thickness_subdivision,
    total_genus,
)
from nerongraph.fixtures import fixture
from nerongraph.graph import bridges, iter_circuits, maximal_chains, spanning_tree

from helpers import (
    banana,
    barbell,
    bfs_tree,
    cycle_graph,
    loop_graph,
    naive_circuits,
    nonseparating_by_search,
    path_graph,
    random_connected_multigraph,
    scrambled,
    theta,
)


class TestBuildGraph:
    def test_single_loop(self):
        g = MultiGraph(["v"], [("e", "v", "v")])
        assert g.n_vertices == 1 and g.n_edges == 1
        assert g.endpoints == ((0, 0),)

    def test_defaults(self):
        g = banana()
        assert g.genera == (0, 0)
        assert g.thicknesses == (1, 1)
        assert g.stabilizers == (1, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            MultiGraph(["a", "b"], [])

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(DanglingEndpoint):
            MultiGraph(["a"], [("e", "a", "zzz")])

    def test_incomparable_vertex_ids_rejected_when_built(self):
        # The spanning tree grows from the least vertex, which ints and
        # strings together do not have.
        with pytest.raises(TypeError):
            MultiGraph([0, "a"], [("e", 0, "a")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            MultiGraph(["a", "a"], [])
        with pytest.raises(DuplicateId):
            MultiGraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])

    def test_bad_decorations_rejected(self):
        with pytest.raises(ValueError):
            banana(edge_thickness={"e0": 0})
        with pytest.raises(ValueError):
            loop_graph(vertex_genus={"v0": -1})
        with pytest.raises(DanglingEndpoint):
            banana(edge_thickness={"nope": 2})

    def test_degree_counts_loops_twice(self):
        # Each end of the barbell has a bridge and a loop, so degree 3
        # and a chain ends there; a lone loop's vertex has degree 2.
        assert maximal_chains(barbell()) == [[0], [1], [2]]
        assert maximal_chains(loop_graph()) == [[0]]


@st.composite
def decorated_graphs(draw):
    """A random connected multigraph (loops and parallel edges allowed)
    with int or string ids, given as ``(vertices, edges, genus,
    thickness, stabilizer)``.  String ids ``v0, v1, ...`` sort as text,
    so "v10" < "v2"; the vertex order is shuffled, with the least vertex
    moved off position 0, and edges are reversed at random.  Each
    decoration names a random subset of the ids."""
    n = draw(st.integers(2, 13))
    name = draw(st.sampled_from((lambda k: k, lambda k: f"v{k}")))
    vertices = [name(k) for k in draw(st.permutations(range(n)))]
    if vertices[0] == min(vertices):
        vertices.append(vertices.pop(0))
    pairs = [(vertices[draw(st.integers(0, k - 1))], vertices[k]) for k in range(1, n)]
    pairs = draw(st.permutations(pairs)) + draw(st.lists(
        st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=6))
    edges = [(f"e{i}", *(pair[::-1] if draw(st.booleans()) else pair))
             for i, pair in enumerate(pairs)]
    ids = [e[0] for e in edges]

    def decoration(keys, least):
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        return {k: draw(st.integers(least, least + 9)) for k in chosen}

    return vertices, edges, decoration(vertices, 0), decoration(ids, 1), decoration(ids, 1)


class TestStoredTables:
    """The tables the constructor builds once, against the ids."""

    @given(decorated_graphs())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_the_ids(self, drawn):
        vertices, edges, genus, thickness, stabilizer = drawn
        g = MultiGraph(vertices, edges, genus, thickness, stabilizer)
        assert g.vertices == tuple(vertices) and vertices.index(min(vertices)) != 0
        tree = spanning_tree(g)
        assert list(tree.items()) == list(bfs_tree(g).items())
        assert len(tree) == g.n_vertices - 1
        assert list(reversed(tree)) == list(tree)[::-1]
        assert g.endpoints == tuple(
            (vertices.index(tail), vertices.index(tip)) for _, tail, tip in edges)
        ids = [e[0] for e in edges]
        assert [g.edge_index(e) for e in ids] == list(range(len(ids)))
        assert g.genera == tuple(genus.get(v, 0) for v in vertices)
        assert g.thicknesses == tuple(thickness.get(e, 1) for e in ids)
        assert g.stabilizers == tuple(stabilizer.get(e, 1) for e in ids)

    def test_string_ids_root_at_the_least_id(self):
        # "v10" < "v2" < "v9": the tree grows from v10, the second vertex.
        g = MultiGraph(["v2", "v10", "v9"], [("a", "v2", "v9"), ("b", "v9", "v10")])
        assert dict(spanning_tree(g)) == {2: (1, 1), 0: (2, 0)}


class TestBetti:
    def test_loop(self):
        assert betti1(loop_graph()) == 1

    def test_banana(self):
        assert betti1(banana()) == 1

    def test_square(self):
        assert betti1(cycle_graph(4)) == 1

    def test_tree(self):
        assert betti1(path_graph(3)) == 0


class TestTotalGenus:
    def test_banana_with_genera(self):
        g = banana(vertex_genus={"v0": 1, "v1": 0})
        assert total_genus(g) == 2

    def test_loop_genus_zero_vertex(self):
        assert total_genus(loop_graph()) == 1

    def test_tree_of_genus_one_vertices(self):
        g = MultiGraph(
            ["a", "b", "c"],
            [("e0", "a", "b"), ("e1", "b", "c")],
            vertex_genus={"a": 1, "b": 1, "c": 1},
        )
        assert total_genus(g) == 3


class TestNonseparating:
    def test_loop_edge(self):
        assert is_nonseparating(loop_graph(), "e0")

    def test_barbell_bridge(self):
        assert not is_nonseparating(barbell(), "b")
        assert is_nonseparating(barbell(), "l0")

    def test_banana_edges(self):
        g = banana()
        assert is_nonseparating(g, "e0") and is_nonseparating(g, "e1")

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            is_nonseparating(banana(), "zzz")


def assert_bridges_are_the_separating_edges(g):
    separating = {ei for ei in range(g.n_edges) if not nonseparating_by_search(g, ei)}
    assert bridges(g) == separating
    assert [is_nonseparating(g, e.id) for e in g.edges] == [
        ei not in separating for ei in range(g.n_edges)]


class TestBridges:
    """``bridges``, and ``is_nonseparating`` through it, against a
    breadth-first search per edge that skips that edge
    (``helpers.reachable_without``), on graphs whose vertex order is
    shuffled and whose edges are reversed at random."""

    def test_small_graphs(self):
        assert bridges(loop_graph()) == frozenset()
        assert bridges(banana()) == frozenset()
        assert bridges(barbell()) == {1}
        assert bridges(path_graph(3)) == {0, 1, 2}
        assert bridges(path_graph(0)) == frozenset()

    def test_exhaustively_with_reversed_edges(self, small_family):
        rng = random.Random(20)
        for g in small_family:
            assert_bridges_are_the_separating_edges(g)
            assert_bridges_are_the_separating_edges(scrambled(rng, g))

    def test_random_graphs_with_reversed_edges(self):
        # Half from the library's generator (at most 8 vertices), half
        # with up to 40 vertices and few extra edges, so that blocks and
        # bridges alternate along long paths.
        rng = random.Random(21)
        for i in range(2000):
            if i % 2:
                g = random_connected_multigraph(rng, max_edges=16, max_extra=rng.randint(0, 6))
            else:
                n = rng.randint(1, 40)
                pairs = [(rng.randrange(v), v) for v in range(1, n)]
                for _ in range(rng.randint(0, n // 3)):
                    u = rng.randrange(n)
                    pairs.append((u, min(n - 1, u + rng.randint(0, 4))))
                g = MultiGraph(range(n), [(j, u, v) for j, (u, v) in enumerate(pairs)])
            assert_bridges_are_the_separating_edges(scrambled(rng, g))

    def test_long_path_and_cycle_without_recursion(self):
        assert bridges(path_graph(5000)) == frozenset(range(5000))
        assert bridges(cycle_graph(5000)) == frozenset()


class TestEnumerateCircuits:
    def test_banana_single_length_two(self):
        cs = enumerate_circuits(banana())
        assert len(cs) == 1 and len(cs[0]) == 2

    def test_square_single_length_four(self):
        cs = enumerate_circuits(cycle_graph(4))
        assert len(cs) == 1 and len(cs[0]) == 4

    def test_tree_empty(self):
        assert enumerate_circuits(path_graph(3)) == []

    def test_theta_has_three_two_circuits(self):
        cs = enumerate_circuits(theta(3))
        assert len(cs) == 3 and all(len(c) == 2 for c in cs)

    def test_barbell_two_loops(self):
        cs = enumerate_circuits(barbell())
        assert len(cs) == 2 and all(len(c) == 1 for c in cs)

    def test_cycle_vector_signs(self):
        # The least edge index is walked forwards; both banana edges run
        # v0 -> v1, so the other one is walked backwards.
        assert enumerate_circuits(banana()) == [{0: 1, 1: -1}]
        assert enumerate_circuits(theta(3)) == [{0: 1, 1: -1}, {0: 1, 2: -1}, {1: 1, 2: -1}]

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(nerongraph.graph, "DEFAULT_CIRCUIT_LIMIT", 2)
        with pytest.raises(TooManyCircuits):
            enumerate_circuits(theta(4))

    def test_agrees_with_naive_dfs_exhaustively(self, small_family):
        for g in small_family:
            assert enumerate_circuits(g) == naive_circuits(g)

    def test_each_circuit_is_closed_once(self, monkeypatch):
        # On the complete graph K7 every circuit has two edges or more,
        # so each would be walked in both directions; only one is closed,
        # and iter_circuits, which remembers no edge set, yields each
        # closed walk.
        inner, walks = nerongraph.graph._closed_walks, []
        monkeypatch.setattr(nerongraph.graph, "_closed_walks",
                            lambda g: (walks.append(w) or w for w in inner(g)))
        k7 = MultiGraph(range(7), [(i, u, v) for i, (u, v) in
                                    enumerate(itertools.combinations(range(7), 2))])
        circuits = enumerate_circuits(k7)
        assert len(circuits) == 1172 and len(walks) == 1172
        assert len({frozenset(ei for ei, _ in w) for w in walks}) == 1172

    def test_iter_circuits_yields_each_circuit_once(self, small_family):
        for g in small_family:
            found = list(iter_circuits(g))
            assert len({frozenset(c) for c in found}) == len(found)
            assert sorted(found, key=sorted) == enumerate_circuits(g)

    def test_iter_circuits_honours_the_limit(self, small_family, monkeypatch):
        # Up to the limit the circuits come out; the next one raises.
        counts = [len(enumerate_circuits(g)) for g in small_family]
        for g, n in zip(small_family, counts):
            monkeypatch.setattr(nerongraph.graph, "DEFAULT_CIRCUIT_LIMIT", n)
            assert len(list(iter_circuits(g))) == n
            if n:
                monkeypatch.setattr(nerongraph.graph, "DEFAULT_CIRCUIT_LIMIT", n - 1)
                circuits = iter_circuits(g)
                assert len(list(itertools.islice(circuits, n - 1))) == n - 1
                with pytest.raises(TooManyCircuits):
                    next(circuits)

    def test_long_cycle_without_recursion(self):
        from nerongraph.enumeration import brute_force_c

        g = cycle_graph(1200)
        (circuit,) = enumerate_circuits(g)
        assert len(circuit) == 1200
        assert brute_force_c(g) == 1200


class TestSignedCommonEdges:
    def test_self_intersection_is_length(self):
        for g in (banana(), cycle_graph(5), barbell()):
            for c in enumerate_circuits(g):
                assert abs(signed_common_edges(c, c)) == len(c)

    def test_symmetry_and_reversal(self):
        g = theta(3)
        a, b = enumerate_circuits(g)[:2]
        reversed_a = {ei: -sign for ei, sign in a.items()}
        assert signed_common_edges(a, b) == signed_common_edges(b, a)
        assert signed_common_edges(reversed_a, b) == -signed_common_edges(a, b)

    def test_disjoint_circuits(self):
        g = barbell()
        a, b = enumerate_circuits(g)
        assert signed_common_edges(a, b) == 0

    def test_theta_fan_squares_share_chain_of_two(self):
        cs = enumerate_circuits(fixture("theta-fan"))
        assert len(cs) == 3
        values = {
            abs(signed_common_edges(a, b))
            for i, a in enumerate(cs)
            for b in cs[i + 1:]
        }
        assert values == {2}


class TestFundamentalCycleBasis:
    def test_tree_empty(self):
        assert fundamental_cycle_basis(path_graph(2)) == []

    def test_banana(self):
        basis = fundamental_cycle_basis(banana())
        assert len(basis) == 1 and len(basis[0]) == 2

    def test_barbell_two_loops(self):
        basis = fundamental_cycle_basis(barbell())
        assert len(basis) == 2 and all(len(c) == 1 for c in basis)

    def test_signed_edge_vectors(self):
        # The non-tree edge e1 runs tail to tip, then the tree edge e0 is
        # walked backwards.
        assert fundamental_cycle_basis(banana()) == [{1: 1, 0: -1}]
        assert fundamental_cycle_basis(barbell()) == [{0: 1}, {2: 1}]

    def test_builds_no_circuit(self, monkeypatch):
        import sys
        import time

        from nerongraph import ReductionData, analyze

        def refuse(*args, **kwargs):
            raise AssertionError("the cycle basis enumerated the circuits")

        patched = set()
        for module_name, module in list(sys.modules.items()):
            if module_name == "nerongraph" or module_name.startswith("nerongraph."):
                for name in ("iter_circuits", "enumerate_circuits"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refuse)
                        patched.add(f"{module_name}.{name}")
        assert {"nerongraph.graph.iter_circuits", "nerongraph.graph.enumerate_circuits",
                "nerongraph.enumeration.iter_circuits"} <= patched
        g = cycle_graph(3000)
        start = time.perf_counter()
        (cycle,) = fundamental_cycle_basis(g)
        report = analyze(ReductionData(graph=g, r=4))
        assert time.perf_counter() - start < 1.0
        assert len(cycle) == 3000 and report.c == 3000

    def test_size_is_betti_number_exhaustively(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            assert len(fundamental_cycle_basis(g)) == betti1(g)

    def test_vectors_lie_in_boundary_kernel(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            boundary = boundary_matrix(g)
            for cycle in fundamental_cycle_basis(g):
                column = [cycle.get(i, 0) for i in range(g.n_edges)]
                assert all(x == 0 for x in boundary.apply(column))

    def test_enumerated_circuits_lie_in_boundary_kernel(self):
        g = MultiGraph(
            ["a", "b", "c"],
            [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"),
             ("e3", "a", "b"), ("e4", "a", "a")],
        )
        boundary = boundary_matrix(g)
        for c in enumerate_circuits(g):
            column = [c.get(i, 0) for i in range(g.n_edges)]
            assert all(x == 0 for x in boundary.apply(column))


class TestRDivided:
    def test_banana_is_two_division_of_loop(self):
        assert is_r_divided(banana(), 2)

    def test_grid_fixture_not_two_divided(self):
        assert not is_r_divided(fixture("grid"), 2)

    def test_r_equals_one_is_identity_subdivision(self):
        for g in (loop_graph(), banana(), barbell(), path_graph(3)):
            assert is_r_divided(g, 1)

    def test_cycles(self):
        c6 = cycle_graph(6)
        assert is_r_divided(c6, 2) and is_r_divided(c6, 3) and is_r_divided(c6, 6)
        assert not is_r_divided(c6, 4)
        assert not is_r_divided(loop_graph(), 2)

    def test_bridge_blocks_divisibility(self):
        assert not is_r_divided(fixture("two-squares-bridge"), 4)

    def test_every_subdivision_is_r_divided(self):
        for g in (loop_graph(), banana(), barbell(), cycle_graph(3)):
            for r in (2, 3):
                thick = MultiGraph(
                    g.vertices,
                    g.edges,
                    edge_thickness={e.id: r for e in g.edges},
                )
                assert is_r_divided(thickness_subdivision(thick), r)


class TestThicknessSubdivision:
    def test_unit_thickness_is_identity(self):
        g = banana()
        assert thickness_subdivision(g) is g

    def test_banana_with_thickness_becomes_triangle(self):
        g = banana(edge_thickness={"e0": 1, "e1": 2})
        sub = thickness_subdivision(g)
        assert sub.n_vertices == 3 and sub.n_edges == 3
        assert betti1(sub) == betti1(g)

    def test_genus_and_betti_preserved(self):
        g = barbell(
            edge_thickness={"l0": 3, "b": 2, "l1": 1},
            vertex_genus={"v0": 2, "v1": 1},
        )
        sub = thickness_subdivision(g)
        assert betti1(sub) == betti1(g)
        assert total_genus(sub) == total_genus(g)
        assert sub.n_edges == 6
