import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nerongraph import (
    AbelianGroup,
    BoundsTooLarge,
    Disconnected,
    MultiGraph,
    betti1,
    boundary_matrix,
    enumerate_circuits,
    homological_criterion,
    is_full_r_torsion,
    phi_r_torsion,
)
import nerongraph.enumeration as enumeration
import nerongraph.homology as homology
import nerongraph.invariants as invariants
from nerongraph.enumeration import (
    _augmentations,
    _canonical_pairs,
    _faces,
    brute_force_c,
    connected_multigraphs,
    verify_equivalence,
)
from nerongraph.component_group import homology_modulus
from nerongraph.graph import fundamental_cycle_basis, spanning_tree
from nerongraph.homology import kernel_generators_mod

from helpers import (
    coboundary_matrix,
    subgroup_contained_mod,
    augmentations_by_child_ranks,
    brute_force_c_over_all_pairs,
    canonical_pairs_by_permutations,
    connected_multigraphs_by_every_augmentation,
    random_connected_multigraph,
)


def _labelled(g):
    """(edge count, vertex count, edge pairs in edge order) of a graph
    on the vertices 0..n-1."""
    return (g.n_edges, g.n_vertices, tuple(
        (min(e.tail, e.tip), max(e.tail, e.tip)) for e in g.edges
    ))


def _as_networkx(nx, g):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n_vertices))
    h.add_edges_from(g.endpoints)
    return h


def _bucket_key(h):
    return (h.number_of_nodes(), h.number_of_edges(), tuple(sorted(d for _, d in h.degree())))


def _isomorphism_buckets(nx, graphs):
    """networkx copies of the graphs, bucketed by (vertex count, edge
    count, degree sequence), which isomorphic graphs share."""
    buckets = {}
    for g in graphs:
        h = _as_networkx(nx, g)
        buckets.setdefault(_bucket_key(h), []).append(h)
    return buckets


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
            tuple(sorted(pair)) for pair in g.endpoints
        )))
        assert key not in seen
        seen.add(key)


def test_no_two_graphs_are_isomorphic(small_family):
    nx = pytest.importorskip("networkx")
    pairs = 0
    for bucket in _isomorphism_buckets(nx, small_family).values():
        for a, b in itertools.combinations(bucket, 2):
            pairs += 1
            assert not nx.is_isomorphic(a, b)
    assert pairs == 1378


def test_random_graphs_are_isomorphic_to_exactly_one_member(small_family):
    nx = pytest.importorskip("networkx")
    buckets = _isomorphism_buckets(nx, small_family)
    rng = random.Random(11)
    for _ in range(300):
        h = _as_networkx(nx, random_connected_multigraph(rng, max_edges=6))
        matches = [f for f in buckets.get(_bucket_key(h), []) if nx.is_isomorphic(f, h)]
        assert len(matches) == 1


def test_smaller_bounds_are_prefixes_sorted_within_each_edge_count(small_family):
    family = [_labelled(g) for g in small_family]
    assert family == sorted(family)
    for k in range(6):
        prefix = [_labelled(g) for g in connected_multigraphs(k)]
        assert prefix == [x for x in family if x[0] <= k]


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


@st.composite
def multigraph_pairs(draw):
    """A vertex count n <= 8 and at most 10 edges on it, as sorted pairs:
    loops, parallel edges and isolated vertices come up on their own."""
    n = draw(st.integers(1, 8))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=10))
    return n, [(min(u, v), max(u, v)) for u, v in pairs]


def _shapes():
    """Stars, double stars and centres with pendant parallel pairs, whose
    classes are made of twins, with a loop or a parallel edge added."""
    shapes = []
    for k in range(1, 8):
        star = [(0, i) for i in range(1, k + 1)]
        shapes += [(k + 1, star), (k + 1, star + [(0, 0)]), (k + 1, star + [(1, 1)])]
        pendants = [(0, i) for i in range(1, k + 1) for _ in range(2)]
        shapes += [(k + 1, pendants), (k + 1, pendants[1:])]
    for a in range(1, 4):
        for b in range(1, 4):
            double_star = [(0, 1)] + [(0, i) for i in range(2, a + 2)]
            double_star += [(1, i) for i in range(a + 2, a + b + 2)]
            shapes += [(a + b + 2, double_star), (a + b + 2, double_star + [(0, 1)])]
    return shapes


@given(multigraph_pairs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_the_permutation_oracle(graph):
    n, pairs = graph
    assert _canonical_pairs(n, pairs) == canonical_pairs_by_permutations(n, pairs)


@pytest.mark.parametrize("n, pairs", _shapes())
def test_canonical_form_of_twin_shapes_matches_the_oracle(n, pairs):
    assert _canonical_pairs(n, pairs) == canonical_pairs_by_permutations(n, pairs)


def test_the_stream_is_the_same_with_the_permutation_oracle(monkeypatch):
    stream = [_labelled(g) for g in connected_multigraphs(7)]
    monkeypatch.setattr(enumeration, "_canonical_pairs", canonical_pairs_by_permutations)
    assert [_labelled(g) for g in connected_multigraphs(7)] == stream


def test_the_stream_is_the_same_as_by_every_augmentation():
    # The rank filter only skips children whose canonical form another
    # augmentation reaches: the labelled stream through 8 edges is the
    # one of canonicalising every augmentation of every parent.
    stream = [_labelled(g) for g in connected_multigraphs(8)]
    assert stream == [_labelled(g) for g in connected_multigraphs_by_every_augmentation(8)]


def _sorted_pairs(g):
    return [(min(u, v), max(u, v)) for u, v in g.endpoints]


def _random_pairs(seed):
    g = random_connected_multigraph(random.Random(seed), max_edges=10)
    return g.n_vertices, _sorted_pairs(g)


def test_filter_matches_the_child_ranks_on_every_parent(small_family):
    for g in small_family:
        if g.n_edges <= 5:
            n, pairs = g.n_vertices, _sorted_pairs(g)
            assert sorted(_augmentations(n, pairs)) == augmentations_by_child_ranks(n, pairs)


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_filter_matches_the_child_ranks_on_random_graphs(seed):
    n, pairs = _random_pairs(seed)
    assert sorted(_augmentations(n, pairs)) == augmentations_by_child_ranks(n, pairs)


def _connected(n, pairs):
    try:
        MultiGraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])
    except Disconnected:
        return False
    return True


def _deletions(n, pairs):
    """(parent vertex count, parent pairs, the edge that puts each edge
    back) for every edge of the graph: a pendant edge goes with its
    leaf, the other vertices keeping their order, and comes back as a
    pendant edge to the new vertex."""
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    for i, (u, v) in enumerate(pairs):
        rest = pairs[:i] + pairs[i + 1:]
        leaf = next((w for w in (v, u) if u != v and degree[w] == 1), None)
        if leaf is None:
            yield n, rest, (u, v)
            continue
        label = [x - (x > leaf) for x in range(n)]
        other = u + v - leaf
        yield n - 1, [(label[a], label[b]) for a, b in rest], (label[other], n - 1)


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_some_deletable_edge_is_kept_by_the_filter(seed):
    # Completeness: every connected graph with an edge is reached from
    # the stratum below, deleting an edge that leaves it connected and
    # that the filter keeps when it is put back.
    n, pairs = _random_pairs(seed)
    assume(pairs)
    assert any(
        _connected(m, rest) and edge in _augmentations(m, rest)
        for m, rest, edge in _deletions(n, pairs)
    )


def test_few_children_are_canonicalised(monkeypatch):
    # Every augmentation of every parent gives 1743 canonical forms for
    # the 471 graphs with at most 6 edges; the rank filter leaves 663.
    calls = []
    inner = enumeration._canonical_pairs
    monkeypatch.setattr(
        enumeration, "_canonical_pairs", lambda n, pairs: calls.append(n) or inner(n, pairs)
    )
    assert sum(1 for _ in connected_multigraphs(6)) == 471
    assert len(calls) <= 700


@pytest.mark.parametrize("n, pairs", [
    (13, [(0, i) for i in range(1, 13)]),  # a star with 12 leaves
    (7, [(0, i) for i in range(1, 7) for _ in range(2)]),  # 6 pendant double edges
])
def test_twins_are_not_permuted(monkeypatch, n, pairs):
    # Each class here is one group of twins, so a handful of candidates
    # decide; the class-preserving permutations number 12! and 6!.
    counts = []
    inner = enumeration._candidates

    def candidates(n, pairs):
        counts.append(0)
        for candidate in inner(n, pairs):
            counts[-1] += 1
            yield candidate

    monkeypatch.setattr(enumeration, "_candidates", candidates)
    centre = n - 1  # the one vertex of the largest degree takes the last label
    assert _canonical_pairs(n, pairs) == tuple(
        (i - 1, centre) for i in sorted(v for u, v in pairs)
    )
    assert len(counts) == 1 and counts[0] <= 4


def test_brute_force_c_is_the_gcd_over_all_pairs():
    # Stopping once the gcd is 1 changes no value: on every graph with at
    # most 7 edges, and on random multigraphs with loops and parallel
    # edges, it is the gcd over every pair of circuits.
    for g in connected_multigraphs(7):
        assert brute_force_c(g) == brute_force_c_over_all_pairs(g)
    rng = random.Random(23)
    for _ in range(200):
        g = random_connected_multigraph(rng, max_edges=10)
        assert brute_force_c(g) == brute_force_c_over_all_pairs(g)


def test_brute_force_c_stops_at_a_gcd_of_one(monkeypatch):
    # A loop is the first circuit found and pairs with itself to 1, so
    # beside K7 (1172 more circuits) one closed walk is taken.
    import nerongraph.graph

    edges = [(i, u, v) for i, (u, v) in enumerate(itertools.combinations(range(7), 2))]
    g = MultiGraph(range(7), edges + [(len(edges), 3, 3)])
    assert len(enumerate_circuits(g)) == 1173
    inner, walks = nerongraph.graph._closed_walks, []
    monkeypatch.setattr(nerongraph.graph, "_closed_walks",
                        lambda g: (walks.append(w) or w for w in inner(g)))
    assert brute_force_c(g) == 1 and len(walks) == 1


def test_random_graphs_valid_and_reproducible():
    a = [random_connected_multigraph(random.Random(17), max_edges=12) for _ in range(5)]
    b = [random_connected_multigraph(random.Random(17), max_edges=12) for _ in range(5)]
    for g, h in zip(a, b):
        assert g.n_edges <= 12
        assert betti1(g) >= 0
        assert [e[:] for e in g.edges] == [e[:] for e in h.edges]
        assert g.vertices == h.vertices and g.genera == h.genera


def test_random_graph_decorations():
    g = random_connected_multigraph(random.Random(2), thickness_range=(2, 5))
    assert all(2 <= t <= 5 for t in g.thicknesses)


def test_verify_small_bounds():
    report = verify_equivalence(max_edges=3, max_q=3)
    assert report.ok
    assert report.total_graphs == 18
    assert report.checks == 18 * 3
    assert report.graphs_by_edges == {0: 1, 1: 2, 2: 4, 3: 11}


def test_verify_seven_edges():
    # OEIS A007719 gives 1211 connected multigraphs with 7 edges.
    report = verify_equivalence(max_edges=7, max_q=6)
    assert report.ok
    assert report.graphs_by_edges[7] == 1211
    assert report.total_graphs == 1682
    assert report.checks == 10092


def test_eight_edge_count():
    # OEIS A007719 gives 4779 connected multigraphs with 8 edges.
    assert sum(g.n_edges == 8 for g in connected_multigraphs(8)) == 4779


def test_verify_bounds_guarded():
    with pytest.raises(BoundsTooLarge, match="between 1 and 9"):
        verify_equivalence(max_edges=10)
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=30)
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=3, max_q=100)
    with pytest.raises(BoundsTooLarge):
        verify_equivalence(max_edges=0)


def test_per_graph_faces_match_the_per_call_criteria():
    # The verifier's faces come from one boundary decomposition, Phi and
    # b1 per graph.  The homology face is held to the public criterion
    # and to the route of two eliminations, the boundary's and that of
    # the coboundary matrix built on its own; the torsion face to the
    # public test and to |Phi[q]| = q^b1, the most Phi[q] can have.
    for g in connected_multigraphs(5):
        faces = _faces(g, 12)
        assert len(faces) == 12
        delta = coboundary_matrix(g)
        for q, (by_homology, by_torsion) in enumerate(faces, 1):
            gens = kernel_generators_mod(boundary_matrix(g), q)
            assert by_homology == homological_criterion(g, q)
            assert by_homology == subgroup_contained_mod(gens, delta, q)
            assert by_torsion == is_full_r_torsion(g, q)
            assert by_torsion == (phi_r_torsion(g, q).order == q ** betti1(g))


def test_at_q_one_every_kernel_generator_drops_out():
    for g in connected_multigraphs(5):
        assert kernel_generators_mod(boundary_matrix(g), 1) == []
        assert _faces(g, 1) == [(True, True)]


def _inject(monkeypatch, fault):
    if fault == "c plus one":
        inner_c = enumeration.brute_force_c
        monkeypatch.setattr(enumeration, "brute_force_c", lambda g: inner_c(g) + 1)
    elif fault == "torsion drops a factor":
        inner_phi = enumeration.phi_group
        monkeypatch.setattr(
            enumeration, "phi_group",
            lambda g: AbelianGroup(inner_phi(g).invariant_factors[1:]),
        )
    elif fault == "Phi route drops a factor":
        # The c face reads c off the Phi of analyze's own reduction.
        inner_phi_and_c = invariants._phi_and_c

        def phi_and_c(g):
            factors = inner_phi_and_c(g)[0].invariant_factors[1:]
            b1 = betti1(g)
            c = factors[0] if b1 and len(factors) == b1 else min(b1, 1)
            return AbelianGroup(factors), c

        monkeypatch.setattr(invariants, "_phi_and_c", phi_and_c)
    elif fault == "homology modulus doubled":
        inner_h = enumeration.homology_modulus
        monkeypatch.setattr(
            enumeration, "homology_modulus",
            lambda g: inner_h(g) * 2 if betti1(g) else inner_h(g),
        )


@pytest.mark.parametrize(
    "fault",
    [None, "c plus one", "torsion drops a factor", "Phi route drops a factor",
     "homology modulus doubled"],
)
def test_a_faulty_face_yields_counterexamples(monkeypatch, fault):
    # The faces share per-graph work; a fault in one of them must still
    # stand out against the other two, not cancel.
    _inject(monkeypatch, fault)
    report = verify_equivalence(max_edges=4, max_q=4)
    assert report.ok == (fault is None)


def _patch_everywhere(monkeypatch, name, inner, replacement):
    """Point every nerongraph module that binds ``inner`` as ``name`` at
    ``replacement``; returns the names of those modules."""
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("nerongraph") and getattr(module, name, None) is inner:
            monkeypatch.setattr(module, name, replacement)
            patched.add(module_name)
    return patched


def _per_graph(monkeypatch):
    """Lists that gain one entry per graph the verifier draws, each the
    list of calls made while that graph is checked, and the graphs."""
    per_graph, graphs = [], []
    inner_graphs = enumeration.connected_multigraphs

    def counted(max_edges):
        for g in inner_graphs(max_edges):
            per_graph.append([])
            graphs.append(g)
            yield g

    monkeypatch.setattr(enumeration, "connected_multigraphs", counted)
    return per_graph, graphs


def test_one_elimination_per_graph(monkeypatch):
    # The budget is at most one elimination with transforms per graph.
    # The homology face is read off the spanning tree and the torsion
    # and c faces off the diagonals of the presentations of Phi, so no
    # graph spends any of it.
    per_graph, _ = _per_graph(monkeypatch)
    inner = homology._eliminate
    monkeypatch.setattr(homology, "_eliminate", lambda a: per_graph[-1].append(a) or inner(a))
    homology.smith_normal_form.cache_clear()
    report = verify_equivalence(max_edges=5, max_q=6)
    assert report.ok and report.total_graphs == 143 == len(per_graph)
    assert max(len(calls) for calls in per_graph) == 0


def test_no_diagonal_only_pass_on_the_boundary(monkeypatch):
    # The diagonal-only loop runs on the presentations of Phi and never
    # on a boundary matrix: none is built, and no matrix it reduces
    # equals the boundary of the graph being checked.
    per_graph, graphs = _per_graph(monkeypatch)
    built = []
    inner_boundary, inner_diagonal = homology.boundary_matrix, homology._smith_diagonal
    _patch_everywhere(
        monkeypatch, "boundary_matrix", inner_boundary,
        lambda g: built.append(g) or inner_boundary(g),
    )
    monkeypatch.setattr(
        homology, "_smith_diagonal", lambda a: per_graph[-1].append(a) or inner_diagonal(a)
    )
    homology.smith_normal_form.cache_clear()
    report = verify_equivalence(max_edges=5, max_q=6)
    assert report.ok and len(per_graph) == report.total_graphs and not built
    assert any(per_graph)
    for g, reduced in zip(graphs, per_graph):
        boundary = inner_boundary(g)
        assert all(a != boundary for a in reduced)


def test_a_faulty_cycle_basis_cannot_pass(monkeypatch):
    # The homology face and the Gram route of the c face share the
    # fundamental cycle basis.  With one tree-edge sign of the last cycle
    # flipped wherever b1 >= 2, the run must stop or show a
    # counterexample; it must never pass.
    inner = fundamental_cycle_basis

    def flipped(g):
        basis = inner(g)
        if len(basis) >= 2:
            tree = {ei for _, ei in spanning_tree(g).values()}
            last = basis[-1]
            ei = next((ei for ei in last if ei in tree), None)
            if ei is not None:
                last[ei] = -last[ei]
        return basis

    patched = _patch_everywhere(monkeypatch, "fundamental_cycle_basis", inner, flipped)
    assert {"nerongraph.component_group", "nerongraph.invariants"} <= patched
    homology.smith_normal_form.cache_clear()
    try:
        report = verify_equivalence(max_edges=4, max_q=4)
    except ArithmeticError:
        return
    finally:
        homology.smith_normal_form.cache_clear()
    assert not report.ok


def _check_homology_modulus(g):
    h = homology_modulus(g)
    assert h == brute_force_c(g)
    boundary, delta = boundary_matrix(g), coboundary_matrix(g)
    for q in range(1, 13):
        gens = kernel_generators_mod(boundary, q)
        assert (h % q == 0) == subgroup_contained_mod(gens, delta, q)


def test_homology_modulus_against_two_eliminations(small_family):
    # The modulus is held, for every q <= 12, to the route of two
    # eliminations (the boundary's kernel mod q, solved against the
    # coboundary matrix built on its own), and is the brute-force c.
    for g in small_family:
        _check_homology_modulus(g)
    rng = random.Random(18)
    for _ in range(150):
        _check_homology_modulus(random_connected_multigraph(rng, max_edges=12))
