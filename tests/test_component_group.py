import random

import pytest

from nerongraph import (
    AbelianGroup,
    MalformedSpectrum,
    MultiGraph,
    betti1,
    enumerate_circuits,
    homological_criterion,
    is_full_r_torsion,
    phi_group,
    phi_r_torsion,
    solve_mod,
    spanning_tree_count,
)
import nerongraph.homology as homology
from nerongraph.component_group import homology_modulus
from nerongraph.fixtures import fixture
from nerongraph.homology import IntMatrix, boundary_matrix

from helpers import (
    NotACycle,
    banana,
    coboundary_matrix,
    coboundary_witness,
    cycle_graph,
    loop_graph,
    path_graph,
    phi_from_presentation,
    random_connected_multigraph,
    theta,
)


class TestAbelianGroup:
    def test_trivial(self):
        g = AbelianGroup()
        assert g.is_trivial and g.order == 1 and str(g) == "trivial"

    def test_order_and_str(self):
        g = AbelianGroup((2, 4))
        assert g.order == 8 and str(g) == "Z/2 x Z/4"

    def test_rejects_ones_and_broken_chains(self):
        with pytest.raises(ValueError):
            AbelianGroup((1, 2))
        with pytest.raises(ValueError):
            AbelianGroup((4, 2))
        with pytest.raises(ValueError):
            AbelianGroup((2, 3))


class TestPhiGroup:
    def test_loop_trivial(self):
        assert phi_group(loop_graph()) == AbelianGroup()

    def test_banana(self):
        assert phi_group(banana()) == AbelianGroup((2,))

    def test_square_cycle(self):
        assert phi_group(cycle_graph(4)) == AbelianGroup((4,))

    def test_matches_quotient_presentation(self):
        # The quotient-of-images presentation, via stacked Smith
        # reductions, on a handful of small graphs.
        for g in (loop_graph(), banana(), cycle_graph(4), theta(3), path_graph(2)):
            assert phi_group(g).invariant_factors == phi_from_presentation(g)

    def test_relabelling_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_multigraph(rng, max_edges=8)
            perm_v = list(g.vertices)
            rng.shuffle(perm_v)
            rename = dict(zip(g.vertices, perm_v))
            order = list(range(g.n_edges))
            rng.shuffle(order)
            edges = [g.edges[i] for i in order]
            h = MultiGraph(
                perm_v,
                [(f"x{k}", rename[e.tail], rename[e.tip]) for k, e in enumerate(edges)],
            )
            assert phi_group(g) == phi_group(h)


class TestSpanningTreeCount:
    def test_tree(self):
        assert spanning_tree_count(path_graph(3)) == 1

    def test_banana(self):
        assert spanning_tree_count(banana()) == 2

    def test_square(self):
        assert spanning_tree_count(cycle_graph(4)) == 4

    def test_theta_chains(self):
        # three chains of length 2 between two vertices: 2*2 + 2*2 + 2*2
        assert spanning_tree_count(fixture("theta-fan")) == 12

    def test_matrix_tree_exhaustively(self, small_family):
        for g in small_family:
            assert phi_group(g).order == spanning_tree_count(g)

    def test_matrix_tree_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_connected_multigraph(rng, max_edges=12)
            assert phi_group(g).order == spanning_tree_count(g)

    def test_long_cycle_refused_with_its_limit(self):
        from nerongraph import NeronGraphError
        from nerongraph.component_group import MAX_TREE_COUNT_EDGES

        assert spanning_tree_count(cycle_graph(MAX_TREE_COUNT_EDGES)) == MAX_TREE_COUNT_EDGES
        with pytest.raises(NeronGraphError, match=str(MAX_TREE_COUNT_EDGES)):
            spanning_tree_count(cycle_graph(1200))


class TestPhiTorsion:
    def test_banana_two_torsion(self):
        assert phi_r_torsion(banana(), 2) == AbelianGroup((2,))

    def test_loop_any_r(self):
        for r in (1, 2, 5):
            assert phi_r_torsion(loop_graph(), r) == AbelianGroup()

    def test_square_two_torsion(self):
        assert phi_r_torsion(cycle_graph(4), 2) == AbelianGroup((2,))

    def test_order_bounded_by_r_to_betti(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            for r in (1, 2, 3, 4, 6):
                assert phi_r_torsion(g, r).order <= r ** betti1(g)


class TestFullTorsion:
    def test_banana_r2(self):
        assert is_full_r_torsion(banana(), 2)

    def test_loop_r2(self):
        assert not is_full_r_torsion(loop_graph(), 2)

    def test_square_r4(self):
        assert is_full_r_torsion(cycle_graph(4), 4)

    def test_r_one_always_full(self):
        for g in (loop_graph(), banana(), path_graph(2)):
            assert is_full_r_torsion(g, 1)


class TestHomologicalCriterion:
    def test_banana_q2(self):
        assert homological_criterion(banana(), 2)

    def test_loop_q_at_least_two(self):
        for q in (2, 3, 4):
            assert not homological_criterion(loop_graph(), q)

    def test_trees_always_pass(self):
        for q in (1, 2, 3, 5):
            assert homological_criterion(path_graph(3), q)


class TestHomologyModulus:
    def test_small_graphs(self):
        assert homology_modulus(path_graph(3)) == 0
        assert homology_modulus(loop_graph()) == 1
        assert homology_modulus(banana()) == 2
        assert homology_modulus(cycle_graph(4)) == 4
        assert homology_modulus(theta(3)) == 1

    @pytest.mark.parametrize("which", ["u", "d", "v"])
    def test_a_corrupted_decomposition_raises(self, monkeypatch, which):
        # On the 4-cycle (h = 4) one entry changed by one is caught in
        # every place that can change the answer: each entry of V, each
        # diagonal entry of D, and each entry of the rows of U that meet
        # the ones of D.  The last row of U meets D's zero and no z_j
        # reads it.
        g = cycle_graph(4)
        inner = homology._eliminate
        udv = inner(boundary_matrix(g))
        k = "udv".index(which)
        m = udv[k]
        if which == "d":
            cells = [(i, i) for i in range(m.rows)]
        else:
            cells = [(i, j) for i in range(m.rows - (which == "u")) for j in range(m.cols)]
        for i, j in cells:
            rows = m.row_list()
            rows[i][j] += 1
            wrong = udv[:k] + (IntMatrix(rows),) + udv[k + 1:]
            monkeypatch.setattr(homology, "_eliminate", lambda a, wrong=wrong: wrong)
            with pytest.raises(ArithmeticError, match="homology_modulus"):
                homology_modulus(g)
        monkeypatch.setattr(homology, "_eliminate", inner)
        assert homology_modulus(g) == 4


class TestCoboundaryWitness:
    def test_banana_witness(self):
        g = banana()
        witness = coboundary_witness(g, {0: 1, 1: -1}, 2)
        assert witness is not None
        image = coboundary_matrix(g).apply(witness)
        assert all((a - b) % 2 == 0 for a, b in zip(image, (1, -1)))

    def test_loop_absent(self):
        g = loop_graph()
        assert coboundary_witness(g, {0: 1}, 2) is None

    def test_zero_vector(self):
        g = banana()
        witness = coboundary_witness(g, {}, 3)
        assert witness == (0, 0)

    def test_not_a_cycle_rejected(self):
        g = path_graph(1)
        with pytest.raises(NotACycle):
            coboundary_witness(g, {0: 1}, 2)

    def test_witness_exists_iff_criterion_admits(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 4]:
            delta = coboundary_matrix(g)
            for q in (2, 3, 4):
                for z in enumerate_circuits(g):
                    witness = coboundary_witness(g, z, q)
                    column = [z.get(i, 0) for i in range(g.n_edges)]
                    member = solve_mod(delta, column, q) is not None
                    assert (witness is not None) == member


class TestMalformedSpectrum:
    def test_disconnected_matrix_raises(self, monkeypatch):
        # A disconnected graph cannot be built through MultiGraph, so feed
        # phi_group the intersection matrix of one (two isolated loops)
        # directly: its Smith diagonal has two zeros, not one.
        import nerongraph.component_group as cg

        monkeypatch.setattr(
            cg, "intersection_matrix", lambda _: IntMatrix([[0, 0], [0, 0]])
        )
        with pytest.raises(MalformedSpectrum):
            cg.phi_group(object())
