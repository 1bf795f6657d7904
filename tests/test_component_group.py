import random
import time

import pytest

from nerongraph import (
    AbelianGroup,
    MalformedSpectrum,
    MultiGraph,
    betti1,
    enumerate_circuits,
    homological_criterion,
    intersection_matrix,
    is_full_r_torsion,
    is_r_divided,
    phi_group,
    phi_r_torsion,
    solve_mod,
    spanning_tree_count,
    torsion_count_special,
    torsion_count_twisted,
)
import nerongraph.component_group as component_group
import nerongraph.homology as homology
from nerongraph.component_group import homology_modulus
from nerongraph.errors import BoundsTooLarge
from nerongraph.fixtures import fixture
from nerongraph.homology import IntMatrix, boundary_matrix, kernel_generators_mod

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
    spanning_trees_by_subsets,
    subgroup_contained_mod,
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

    def test_refused_from_the_vertex_count_before_any_matrix(self, monkeypatch):
        from nerongraph.homology import MAX_PRESENTATION_DIMENSION

        def unbuilt(g):
            raise AssertionError("the intersection matrix was built")

        monkeypatch.setattr(component_group, "intersection_matrix", unbuilt)
        g = path_graph(MAX_PRESENTATION_DIMENSION + 1)
        limit = rf"^vertices: .* {MAX_PRESENTATION_DIMENSION}$"
        for call in (phi_group, lambda g: phi_r_torsion(g, 2), lambda g: is_full_r_torsion(g, 2)):
            with pytest.raises(BoundsTooLarge, match=limit):
                call(g)

    def test_largest_presentation_accepted(self):
        from nerongraph.homology import MAX_PRESENTATION_DIMENSION

        assert phi_group(path_graph(MAX_PRESENTATION_DIMENSION)) == AbelianGroup()


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
            count = spanning_tree_count(g)
            assert phi_group(g).order == count == spanning_trees_by_subsets(g)

    def test_matrix_tree_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_connected_multigraph(rng, max_edges=12)
            count = spanning_tree_count(g)
            assert phi_group(g).order == count == spanning_trees_by_subsets(g)

    def test_long_cycle_refused_with_its_limit(self):
        from nerongraph import NeronGraphError
        from nerongraph.component_group import MAX_TREE_COUNT_EDGES

        assert spanning_tree_count(cycle_graph(MAX_TREE_COUNT_EDGES)) == MAX_TREE_COUNT_EDGES
        with pytest.raises(NeronGraphError, match=str(MAX_TREE_COUNT_EDGES)):
            spanning_tree_count(cycle_graph(1200))

    def test_grids_counted_within_a_second(self):
        # The counts agree with networkx's number_of_spanning_trees on
        # grid_2d_graph(rows, 6).
        for rows, count in ((4, 170537640), (5, 74795194705)):
            cells = [(i, j) for i in range(rows) for j in range(6)]
            edges = [(cells.index(a), cells.index(b))
                     for a in cells for b in ((a[0] + 1, a[1]), (a[0], a[1] + 1)) if b in cells]
            g = MultiGraph(range(len(cells)), [(k, a, b) for k, (a, b) in enumerate(edges)])
            start = time.process_time()
            assert spanning_tree_count(g) == count
            assert time.process_time() - start < 1


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

    def test_a_corrupted_basis_raises(self, monkeypatch):
        # Each coefficient of each basis cycle, on every edge, changed by
        # one either way, and each cycle dropped: every change is caught.
        # On a loop beside a banana (h = 1) the loop's cycle doubled is
        # still a cycle, and without the check that each basis vector
        # meets its own non-tree edge with +-1 the pairings and the
        # potentials would agree on h = 2.
        inner = component_group.fundamental_cycle_basis
        loop_and_banana = MultiGraph(
            ["v0", "v1"], [("l", "v0", "v0"), ("e0", "v0", "v1"), ("e1", "v0", "v1")]
        )
        for g, h in ((cycle_graph(4), 4), (theta(3), 1), (loop_and_banana, 1)):
            basis = inner(g)
            wrongs = [basis[:j] + basis[j + 1:] for j in range(len(basis))]
            for j, z in enumerate(basis):
                for ei in range(g.n_edges):
                    for step in (1, -1):
                        wrong = [dict(y) for y in basis]
                        wrong[j][ei] = z.get(ei, 0) + step
                        wrongs.append(wrong)
            for wrong in wrongs:
                monkeypatch.setattr(
                    component_group, "fundamental_cycle_basis", lambda g, wrong=wrong: wrong
                )
                with pytest.raises(ArithmeticError, match="homology_modulus"):
                    homology_modulus(g)
            monkeypatch.setattr(component_group, "fundamental_cycle_basis", inner)
            assert homology_modulus(g) == h

    def test_stops_pairing_at_a_gcd_of_one(self, monkeypatch):
        # Edge 0 is a loop, whose fundamental cycle comes first and pairs
        # with itself to 1; no later pairing can change that.
        g = MultiGraph(
            ["v0", "v1", "v2"],
            [("l", "v0", "v0"), ("e0", "v0", "v1"), ("e1", "v1", "v2"),
             ("e2", "v2", "v0"), ("e3", "v0", "v1")],
        )
        inner, calls = component_group.signed_common_edges, []
        monkeypatch.setattr(
            component_group, "signed_common_edges",
            lambda a, b: calls.append(1) or inner(a, b),
        )
        assert homology_modulus(g) == 1 and len(calls) == 1

    def test_a_faulty_pairing_cannot_change_the_answer(self, monkeypatch):
        # The tree potentials give the gcd of the pairings a second time,
        # without signed_common_edges.  With each self-pairing off by one
        # either way, a graph with b1 = 1, whose h is its one pairing,
        # raises; theta(3) keeps h = 1 and its answer.
        inner = component_group.signed_common_edges
        for step in (1, -1):
            monkeypatch.setattr(
                component_group, "signed_common_edges",
                lambda a, b, step=step: inner(a, b) + (step if a is b else 0),
            )
            for g in (loop_graph(), banana(), cycle_graph(4)):
                with pytest.raises(ArithmeticError, match="homology_modulus"):
                    homology_modulus(g)
            assert homology_modulus(theta(3)) == 1

    @pytest.mark.parametrize("which", ["u", "d", "v"])
    def test_a_corrupted_decomposition_raises(self, monkeypatch, which):
        # homology_modulus reads no elimination; it is held to the route
        # of two, the boundary's kernel mod q solved against the
        # coboundary.  On the 4-cycle (h = 4) one entry of the
        # coboundary's U a V = D changed by one is caught by that
        # cross-check in every place that solve_mod reads: each entry of
        # U, each diagonal entry of D, and each entry of the columns of V
        # that meet the ones of D.  The last column of V meets D's zero.
        g = cycle_graph(4)
        boundary, delta = boundary_matrix(g), coboundary_matrix(g)

        def held_to_two_eliminations():
            for q in range(1, 13):
                gens = kernel_generators_mod(boundary, q)
                if (4 % q == 0) != subgroup_contained_mod(gens, delta, q):
                    raise ArithmeticError(f"two eliminations disagree with h = 4 at q = {q}")

        inner = homology._eliminate
        udv = inner(delta)
        k = "udv".index(which)
        m = udv[k]
        if which == "d":
            cells = [(i, i) for i in range(m.rows)]
        else:
            cells = [(i, j) for i in range(m.rows) for j in range(m.cols - (which == "v"))]
        for i, j in cells:
            rows = m.row_list()
            rows[i][j] += 1
            wrong = udv[:k] + (IntMatrix(rows),) + udv[k + 1:]
            monkeypatch.setattr(
                homology, "_eliminate", lambda a, wrong=wrong: wrong if a == delta else inner(a)
            )
            assert homology_modulus(g) == 4
            with pytest.raises(ArithmeticError):
                held_to_two_eliminations()
        monkeypatch.setattr(homology, "_eliminate", inner)
        held_to_two_eliminations()


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
        # in place of the banana's: its Smith diagonal has two zeros, not
        # one.
        import nerongraph.component_group as cg

        monkeypatch.setattr(
            cg, "intersection_matrix", lambda _: IntMatrix([[0, 0], [0, 0]])
        )
        with pytest.raises(MalformedSpectrum):
            cg.phi_group(banana())


_SQUARE = fixture("square")


@pytest.mark.parametrize("check", [
    lambda r: phi_r_torsion(_SQUARE, r),
    lambda r: is_full_r_torsion(_SQUARE, r),
    lambda r: is_r_divided(_SQUARE, r),
    lambda r: torsion_count_special(_SQUARE, r),
    lambda r: torsion_count_twisted(_SQUARE, r),
    lambda q: homological_criterion(_SQUARE, q),
    lambda q: solve_mod(intersection_matrix(_SQUARE), (0,) * 4, q),
    lambda q: kernel_generators_mod(intersection_matrix(_SQUARE), q),
], ids=["phi_r_torsion", "is_full_r_torsion", "is_r_divided", "torsion_count_special",
        "torsion_count_twisted", "homological_criterion", "solve_mod",
        "kernel_generators_mod"])
@pytest.mark.parametrize("value", [0, -2, 2.0, 2.5, True, "2"], ids=repr)
def test_torsion_orders_and_moduli_are_checked_alike(check, value):
    # One check for r and q: a float, a bool or a string is no positive
    # integer, even where it would compute a number.
    with pytest.raises(ValueError, match="must be a positive integer"):
        check(value)
