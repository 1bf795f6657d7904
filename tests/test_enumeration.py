import random

import pytest

from nerongraph import BoundsTooLarge, betti1
from nerongraph.enumeration import (
    _canonical_pairs,
    connected_multigraphs,
    random_connected_multigraph,
    verify_equivalence,
)


def test_first_counts_match_hand_enumeration():
    # 1 edge: a loop or a single edge.
    # 2 edges: two loops on one vertex; loop plus pendant edge; two
    # parallel edges; a path of two edges.
    counts = {}
    for g in connected_multigraphs(2):
        counts[g.n_edges] = counts.get(g.n_edges, 0) + 1
    assert counts == {0: 1, 1: 2, 2: 4}


def test_three_edge_count():
    graphs = [g for g in connected_multigraphs(3) if g.n_edges == 3]
    assert len(graphs) == 11



def test_counts_per_edge_number_up_to_six(small_family):
    # OEIS A007719: connected multigraphs with loops, by edge count.
    counts = {}
    for g in small_family:
        counts[g.n_edges] = counts.get(g.n_edges, 0) + 1
    assert counts == {0: 1, 1: 2, 2: 4, 3: 11, 4: 30, 5: 95, 6: 328}

def test_all_graphs_valid_and_distinct(small_family):
    seen = set()
    for g in small_family:
        assert g.n_edges <= 6
        key = (g.n_vertices, tuple(sorted(
            tuple(sorted((g.vertex_index(e.tail), g.vertex_index(e.tip))))
            for e in g.edges
        )))
        assert key not in seen
        seen.add(key)


def test_relabelled_graphs_have_same_canonical_form():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = []
        for v in range(1, n):
            u = rng.randrange(v)
            pairs.append((u, v))
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(n), rng.randrange(n)
            pairs.append((min(u, v), max(u, v)))
        sigma = list(range(n))
        rng.shuffle(sigma)
        relabelled = [
            (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in pairs
        ]
        assert _canonical_pairs(n, pairs) == _canonical_pairs(n, relabelled)


def test_random_graphs_valid_and_reproducible():
    a = [random_connected_multigraph(random.Random(17), max_edges=12) for _ in range(5)]
    b = [random_connected_multigraph(random.Random(17), max_edges=12) for _ in range(5)]
    for g, h in zip(a, b):
        assert g.n_edges <= 12
        assert betti1(g) >= 0
        assert [e[:] for e in g.edges] == [e[:] for e in h.edges]
        assert g.vertex_genus == h.vertex_genus


def test_random_graph_decorations():
    g = random_connected_multigraph(random.Random(2), thickness_range=(2, 5))
    assert all(2 <= t <= 5 for t in g.edge_thickness.values())


def test_verify_small_bounds():
    report = verify_equivalence(max_edges=3, max_q=3)
    assert report.ok
    assert report.total_graphs == 18
    assert report.checks == 18 * 3
    assert report.graphs_by_edges == {0: 1, 1: 2, 2: 4, 3: 11}


def test_verify_bounds_guarded():
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=30)
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=3, max_q=100)
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=0)
