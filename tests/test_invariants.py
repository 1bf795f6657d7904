import contextlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nerongraph
from nerongraph import (
    BoundsTooLarge,
    InvalidReductionData,
    betti1,
    MissingMultidegree,
    MultiGraph,
    ReductionData,
    SemistabilityRequired,
    StabilizerMismatch,
    analyze,
    circuit_invariant_c,
    group_neron_finite,
    homological_criterion,
    index_m2,
    index_m3,
    is_full_r_torsion,
    is_r_divided,
    paper_fixtures,
    smith_normal_form,
    thickness_invariant_t,
    thickness_subdivision,
    torsion_count_special,
    torsion_count_twisted,
    torsor_neron_finite,
    twisted_roots_finite,
)
from nerongraph.enumeration import brute_force_c
from nerongraph.fixtures import fixture
from nerongraph.graph import bridges, fundamental_cycle_basis, maximal_chains
from nerongraph.homology import (
    IntMatrix,
    cycle_pairing_matrix,
    intersection_matrix,
    kirchhoff_matrix,
)
from nerongraph.invariants import MAX_PRESENTATION_DIMENSION

from helpers import (
    CyclePairing,
    banana,
    barbell,
    cycle_graph,
    loop_graph,
    divisibility_chain,
    nonseparating_by_search,
    path_graph,
    random_connected_multigraph,
    regular_model_report,
    scrambled,
    two_triangles_bridge,
)

FIXTURE_C = {"loop": 1, "banana": 2, "square": 4, "theta-fan": 2,
             "two-squares-bridge": 4, "grid": 2}


class TestCircuitInvariant:
    def test_fixture_values(self):
        for name, g in paper_fixtures():
            assert circuit_invariant_c(g) == FIXTURE_C[name]

    def test_tree_is_zero(self):
        assert circuit_invariant_c(path_graph(3)) == 0

    def test_two_triangles_bridge(self):
        assert circuit_invariant_c(two_triangles_bridge()) == 3

    def test_gram_agrees_with_brute_force_exhaustively(self, small_family):
        for g in small_family:
            assert circuit_invariant_c(g) == brute_force_c(g)

    def test_uneven_banana_refers_to_regular_model(self):
        # Thicknesses (1, 2) resolve the banana into a triangle.
        g = banana(edge_thickness={"e0": 1, "e1": 2})
        assert circuit_invariant_c(g) == 3
        assert circuit_invariant_c(g) == brute_force_c(thickness_subdivision(g))


class TestThicknessInvariant:
    def test_unit_banana(self):
        assert thickness_invariant_t(banana()) == 1

    def test_gcd_of_thicknesses(self):
        assert thickness_invariant_t(banana(edge_thickness={"e0": 4, "e1": 6})) == 2

    def test_tree_is_zero(self):
        assert thickness_invariant_t(path_graph(2)) == 0

    def test_separating_edges_ignored(self):
        g = barbell(edge_thickness={"l0": 4, "b": 3, "l1": 6})
        assert thickness_invariant_t(g) == 2


class TestIndices:
    def test_table_graphs_r4(self):
        expected_m2 = {"loop": 4, "banana": 2, "square": 1, "theta-fan": 2,
                       "two-squares-bridge": 1, "grid": 2}
        for name, g in paper_fixtures():
            d = ReductionData(graph=g, r=4)
            assert index_m2(d) == expected_m2[name]
            assert index_m3(d) == 4

    def test_tree_any_r(self):
        for r in (2, 3, 5):
            d = ReductionData(graph=path_graph(2), r=r, m1=1)
            assert index_m2(d) == 1 and index_m3(d) == 1
        d = ReductionData(graph=path_graph(2), r=6, m1=2)
        assert index_m2(d) == 2 and index_m3(d) == 2

    def test_loop_r5(self):
        d = ReductionData(graph=loop_graph(), r=5)
        assert index_m2(d) == 5 and index_m3(d) == 5

    def test_thick_banana_m3(self):
        d = ReductionData(graph=banana(edge_thickness={"e0": 4, "e1": 4}), r=4)
        assert index_m3(d) == 1

    def test_m2_uses_regular_model(self):
        # thickness (3, 3): the regular model is a hexagon, so c = 6
        d = ReductionData(graph=banana(edge_thickness={"e0": 3, "e1": 3}), r=6)
        assert index_m2(d) == 1 and index_m3(d) == 2
        assert divisibility_chain(d.m1, index_m2(d), index_m3(d), d.r)


class TestGroupVerdict:
    def test_banana_r2_finite(self):
        assert group_neron_finite(ReductionData(graph=banana(), r=2))

    def test_loop_r3_not_finite(self):
        assert not group_neron_finite(ReductionData(graph=loop_graph(), r=3))

    def test_theta_fan_r4_not_finite(self):
        assert not group_neron_finite(ReductionData(graph=fixture("theta-fan"), r=4))

    def test_semistability_required(self):
        with pytest.raises(SemistabilityRequired):
            group_neron_finite(ReductionData(graph=banana(), r=2, m1=2))

    def test_matches_torsion_and_homology_on_fixtures(self):
        for _, g in paper_fixtures():
            for r in range(1, 7):
                verdict = group_neron_finite(ReductionData(graph=g, r=r))
                assert verdict == is_full_r_torsion(g, r)
                assert verdict == homological_criterion(g, r)

    def test_thick_input_matches_regular_model_torsion(self):
        g = banana(edge_thickness={"e0": 3, "e1": 3})
        d = ReductionData(graph=g, r=6)
        assert group_neron_finite(d)
        assert is_full_r_torsion(thickness_subdivision(g), 6)
        assert not is_full_r_torsion(g, 6)


class TestTwistedRoots:
    def test_banana_stabilizers_two(self):
        g = banana(edge_stabilizer={"e0": 2, "e1": 2})
        d = ReductionData(graph=g, r=2, multidegree={"v0": 0, "v1": 0})
        assert twisted_roots_finite(d)

    def test_banana_stabilizers_one(self):
        d = ReductionData(graph=banana(), r=2, multidegree={"v0": 0, "v1": 0})
        assert not twisted_roots_finite(d)

    def test_separating_clause_side_degree(self):
        g = barbell(edge_stabilizer={"l0": 3, "l1": 3, "b": 1})
        d = ReductionData(graph=g, r=3, multidegree={"v0": 3, "v1": 0})
        assert twisted_roots_finite(d)  # 3 | 1 * 3 on the bridge
        d2 = ReductionData(graph=g, r=3, multidegree={"v0": 1, "v1": 2})
        assert not twisted_roots_finite(d2)  # side degree 1, 3 does not divide 1

    def test_multidegree_required(self):
        with pytest.raises(MissingMultidegree):
            twisted_roots_finite(ReductionData(graph=banana(), r=2))


class TestTorsionCounts:
    def test_special_fibre_formula(self):
        g = banana(vertex_genus={"v0": 1, "v1": 0})  # total genus 2, b1 = 1
        assert torsion_count_special(g, 3) == 27

    def test_tree_compact_type(self):
        g = MultiGraph(["a", "b"], [("e", "a", "b")], vertex_genus={"a": 2, "b": 1})
        assert torsion_count_special(g, 5) == 5 ** 6

    def test_loop_graph(self):
        assert torsion_count_special(loop_graph(), 2) == 2

    def test_twisted_full_count(self):
        g = banana(edge_stabilizer={"e0": 2, "e1": 2})
        assert torsion_count_twisted(g, 2) == 4

    def test_twisted_requires_matching_stabilizers(self):
        with pytest.raises(StabilizerMismatch):
            torsion_count_twisted(banana(), 2)

    def test_twisted_r_one(self):
        assert torsion_count_twisted(banana(), 1) == 1


class TestTorsorVerdict:
    def test_banana_odd_degrees(self):
        d = ReductionData(graph=banana(), r=2, multidegree={"v0": 1, "v1": -1})
        assert not torsor_neron_finite(d)

    def test_banana_even_degrees(self):
        d = ReductionData(graph=banana(), r=2, multidegree={"v0": 2, "v1": 0})
        assert torsor_neron_finite(d)

    def test_zero_multidegree_on_passing_graph(self):
        d = ReductionData(graph=cycle_graph(4), r=4, multidegree={})
        assert torsor_neron_finite(d)

    def test_implies_group_verdict(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_edges=8)
            r = rng.randint(1, 6)
            degrees = [rng.randint(-4, 4) for _ in range(g.n_vertices)]
            degrees[-1] -= sum(degrees) % r
            d = ReductionData(
                graph=g, r=r,
                multidegree=dict(zip(g.vertices, degrees)),
            )
            if torsor_neron_finite(d):
                assert group_neron_finite(d)

    def test_requirements(self):
        with pytest.raises(MissingMultidegree):
            torsor_neron_finite(ReductionData(graph=banana(), r=2))
        with pytest.raises(SemistabilityRequired):
            torsor_neron_finite(
                ReductionData(graph=banana(), r=2, m1=3,
                              multidegree={"v0": 0, "v1": 0})
            )


class TestDivisibilityChain:
    def test_examples(self):
        assert divisibility_chain(1, 2, 4, 4)
        assert not divisibility_chain(1, 4, 2, 4)
        for r in (1, 3, 7):
            assert divisibility_chain(1, 1, 1, r)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisibility_chain(0, 1, 1, 1)

    def test_holds_with_random_thickness(self):
        rng = random.Random(31337)
        for _ in range(150):
            g = random_connected_multigraph(rng, max_edges=9, thickness_range=(1, 9))
            r = rng.randint(1, 8)
            d = ReductionData(graph=g, r=r)
            assert divisibility_chain(d.m1, index_m2(d), index_m3(d), r)

    def test_m2_divides_m3_for_unit_thickness(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            for r in (1, 2, 3, 4, 6):
                d = ReductionData(graph=g, r=r)
                assert index_m3(d) % index_m2(d) == 0


class TestLorenzini:
    def test_banana_r2(self):
        assert is_r_divided(banana(), 2)

    def test_uneven_banana_r2_not_divided(self):
        # Thicknesses (1, 2): the regular model is a triangle, which is
        # not 2-divided, and the group model is not finite (c = 3).
        g = banana(edge_thickness={"e0": 1, "e1": 2})
        assert not is_r_divided(g, 2)
        assert not group_neron_finite(ReductionData(graph=g, r=2))

    def test_two_squares_bridge_not_divided_but_finite(self):
        g = fixture("two-squares-bridge")
        assert not is_r_divided(g, 4)
        assert group_neron_finite(ReductionData(graph=g, r=4))

    def test_grid_not_divided_but_finite(self):
        g = fixture("grid")
        assert not is_r_divided(g, 2)
        assert group_neron_finite(ReductionData(graph=g, r=2))

    def test_sufficiency_exhaustively(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            for r in (2, 3, 4):
                if is_r_divided(g, r):
                    assert group_neron_finite(ReductionData(graph=g, r=r))
        rng = random.Random(17)
        divided = 0
        for _ in range(300):
            g = random_connected_multigraph(rng, max_edges=8, thickness_range=(1, 6))
            r = rng.randint(2, 4)
            d = ReductionData(graph=g, r=r)
            assert circuit_invariant_c(g) == analyze(d).c
            if is_r_divided(g, r):
                divided += 1
                assert group_neron_finite(d)
        assert divided > 0


class TestReductionData:
    def test_multidegree_defaults_missing_vertices_to_zero(self):
        d = ReductionData(graph=banana(), r=2, multidegree={"v0": 2})
        assert d.multidegree == {"v0": 2, "v1": 0}
        assert d.multidegree_vector() == (2, 0)

    def test_bad_r_and_m1(self):
        with pytest.raises(InvalidReductionData):
            ReductionData(graph=banana(), r=0)
        with pytest.raises(InvalidReductionData):
            ReductionData(graph=banana(), r=2, m1=0)

    def test_multidegree_sum_must_vanish_mod_r(self):
        with pytest.raises(InvalidReductionData):
            ReductionData(graph=banana(), r=2, multidegree={"v0": 1, "v1": 0})

    def test_multidegree_unknown_vertex(self):
        with pytest.raises(InvalidReductionData):
            ReductionData(graph=banana(), r=2, multidegree={"nope": 2})


class TestAnalyze:
    def test_banana_report(self):
        d = ReductionData(graph=banana(), r=2, multidegree={"v0": 2, "v1": 0})
        report = analyze(d)
        assert report.b1 == 1
        assert report.c == 2 and report.t == 1
        assert report.phi.invariant_factors == (2,)
        assert report.phi_r.invariant_factors == (2,)
        assert (report.m1, report.m2, report.m3) == (1, 1, 2)
        assert report.group_neron_finite and report.torsor_neron_finite
        assert report.r_divided
        assert report.twisted_roots_finite is False
        assert report.torsion_count_special_fibre == 2 ** (2 * report.genus - 1)
        assert report.torsion_count_generic == 2 ** (2 * report.genus)

    def test_optional_fields_none_without_multidegree(self):
        report = analyze(ReductionData(graph=banana(), r=2))
        assert report.torsor_neron_finite is None
        assert report.twisted_roots_finite is None

    def test_m1_not_one_rejected(self):
        with pytest.raises(SemistabilityRequired):
            analyze(ReductionData(graph=banana(), r=2, m1=2))

    def test_report_chain_invariant(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_edges=8, thickness_range=(1, 6))
            r = rng.randint(1, 6)
            report = analyze(ReductionData(graph=g, r=r))
            assert divisibility_chain(report.m1, report.m2, report.m3, r)

    def test_thick_report_refers_to_regular_model(self):
        g = banana(edge_thickness={"e0": 3, "e1": 3})
        report = analyze(ReductionData(graph=g, r=6))
        assert report.c == 6  # hexagon, not the bare banana
        assert report.phi.invariant_factors == (6,)
        assert report.group_neron_finite


@st.composite
def thick_reduction_data(draw, divided=None):
    """A random tree plus extra edges (loops and parallels allowed), with
    thicknesses, stabilizers, r in 2..6 and a multidegree; ``divided``
    forces whether the thicknesses are lengthened to an r-divided
    regular model, and by default it is drawn.  As in
    ``helpers.scrambled``, the vertex order is shuffled and edges are
    reversed at random, so the spanning tree does not always point away
    from its root."""
    n = draw(st.integers(1, 6))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(i, v, u) if flip else (i, u, v)
             for i, ((u, v), flip) in enumerate(zip(pairs, flips))]
    order = draw(st.permutations(range(n)))
    r = draw(st.integers(2, 6))
    thickness = [draw(st.integers(1, 6)) for _ in pairs]
    if draw(st.booleans()) if divided is None else divided:
        # Lengthen one edge per maximal chain so that the regular model is
        # r-divided: it then meets the group criterion, and the torsor
        # verdict turns on the multidegree.
        for chain in maximal_chains(MultiGraph(order, edges)):
            thickness[chain[0]] += -sum(thickness[i] for i in chain) % r
    stabilizer = {i: draw(st.sampled_from((1, r, 2 * r, 3))) for i in range(len(pairs))}
    g = MultiGraph(order, edges, edge_thickness=dict(enumerate(thickness)),
                   edge_stabilizer=stabilizer)
    degrees = [draw(st.integers(-2 * r, 2 * r)) for _ in range(n)]
    degrees[-1] -= sum(degrees) % r
    return ReductionData(graph=g, r=r, multidegree=dict(enumerate(degrees)))


@st.composite
def divided_principal_data(draw):
    """Reduction data whose verdicts are finite by construction: a random
    multigraph (loops and parallel edges allowed) with every edge
    replaced by a path of r >= 3 unit edges, so that every pair of
    circuits shares a multiple of r edges, and the multidegree M x of a
    random integer potential x, which lies in the image of the
    intersection matrix M.  Edges are reversed at random and the vertex
    order is shuffled, so the spanning tree's edges point both ways; r
    is at least 3 because a sign error is invisible modulo 2."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=5))
    r = draw(st.integers(3, 6))
    count, edges = n, []
    for u, v in pairs:
        chain = [u, *range(count, count + r - 1), v]
        count += r - 1
        for a, b in itertools.pairwise(chain):
            edges.append((len(edges), *((b, a) if draw(st.booleans()) else (a, b))))
    g = MultiGraph(draw(st.permutations(range(count))), edges)
    x = [draw(st.integers(-3, 3)) for _ in range(count)]
    degrees = intersection_matrix(g).apply(x)
    return ReductionData(graph=g, r=r, multidegree=dict(zip(g.vertices, degrees)))


def _report_fields(d):
    report = analyze(d)
    return {key: getattr(report, key) for key in regular_model_report(d)}


class TestPairingAgainstSubdivision:
    """The pairing route of ``analyze`` against the thickness
    subdivision and its Laplacian, which ``analyze`` never builds."""

    def test_same_report_reaching_both_torsor_outcomes(self):
        # Both torsor outcomes must come up on graphs with cycles that
        # meet the group criterion, where the verdict turns on the solve
        # against G and not on c alone.
        outcomes = set()

        @settings(max_examples=200, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(thick_reduction_data())
        def check(d):
            expected = regular_model_report(d)
            assert _report_fields(d) == expected
            if betti1(d.graph) > 0 and expected["group_neron_finite"]:
                outcomes.add(expected["torsor_neron_finite"])

        check()
        assert outcomes == {True, False}

    def test_standalone_functions_agree_with_analyze(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_edges=9, thickness_range=(1, 7))
            r = rng.randint(2, 6)
            degrees = [rng.randint(-5, 5) for _ in g.vertices]
            degrees[-1] -= sum(degrees) % r
            d = ReductionData(graph=g, r=r, multidegree=dict(zip(g.vertices, degrees)))
            report = analyze(d)
            assert report.c == circuit_invariant_c(g)
            assert report.r_divided == is_r_divided(g, r)
            assert report.t == thickness_invariant_t(g)
            assert report.m2 == index_m2(d) and report.m3 == index_m3(d)
            assert report.group_neron_finite == group_neron_finite(d)
            assert report.torsor_neron_finite == torsor_neron_finite(d)
            assert report.twisted_roots_finite == twisted_roots_finite(d)

    def test_support_is_the_nonseparating_edges(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            nonseparating = {e.id for ei, e in enumerate(g.edges)
                             if nonseparating_by_search(g, ei)}
            separating = {g.edges[ei].id for ei in bridges(g)}
            assert separating == {e.id for e in g.edges} - nonseparating
            support = {g.edges[ei].id for ei in CyclePairing(g).support}
            assert support == nonseparating


class TestTreeRoutesWithReversedEdges:
    """c read from Phi and the torsor verdict from tree potentials,
    against the cycle-basis oracle and the subdivision's Laplacian, on
    thick graphs with loops whose vertex order is shuffled and whose
    edges are reversed at random.  The potentials carry no orientation
    sign, so a sign by edge direction fails here."""

    def test_c_and_torsor_against_both_oracles(self):
        rng = random.Random(12)
        outcomes, loops = set(), 0
        for _ in range(2000):
            g = scrambled(rng, random_connected_multigraph(
                rng, max_edges=8, thickness_range=(1, 4)))
            loops += any(tail == tip for tail, tip in g.endpoints)
            oracle = CyclePairing(g)
            c = oracle.c()
            # Mostly an r dividing c, where the verdict turns on the
            # potentials.
            divisors = [q for q in range(2, c + 1) if c % q == 0]
            r = rng.choice(divisors) if divisors and rng.random() < 0.7 else rng.randint(2, 6)
            degrees = [rng.randint(-2 * r, 2 * r) for _ in g.vertices]
            degrees[-1] -= sum(degrees) % r
            d = ReductionData(graph=g, r=r, multidegree=dict(zip(g.vertices, degrees)))
            report, expected = analyze(d), regular_model_report(d)
            factors = report.phi.invariant_factors
            assert report.c == c == expected["c"]
            assert c == (0 if not report.b1 else
                         factors[0] if len(factors) == report.b1 else 1)
            assert report.torsor_neron_finite == oracle.torsor_finite(degrees, r)
            assert report.torsor_neron_finite == expected["torsor_neron_finite"]
            assert torsor_neron_finite(d) == report.torsor_neron_finite
            if report.b1 and c % r == 0:
                outcomes.add(report.torsor_neron_finite)
        assert outcomes == {True, False}
        assert loops > 500

    @given(divided_principal_data())
    @settings(max_examples=300, deadline=None, database=None)
    def test_principal_multidegree_on_divided_graph_is_finite(self, d):
        report = analyze(d)
        assert report.r_divided and report.group_neron_finite
        assert report.torsor_neron_finite


class TestManyParallelEdges:
    """Few vertices and many parallel edges: the Kirchhoff matrix is
    reduced, and no b1 x b1 pairing may be built."""

    @staticmethod
    def analyzed(g):
        d = ReductionData(graph=g, r=2, multidegree={})
        start = time.perf_counter()
        report = analyze(d)
        assert time.perf_counter() - start < 1.0
        smith_normal_form.cache_clear()
        tracemalloc.start()
        try:
            analyze(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        return report

    def test_banana_of_twenty_thousand_edges(self):
        g = MultiGraph(["a", "b"], [(i, "a", "b") for i in range(20000)])
        report = self.analyzed(g)
        assert report.b1 == 19999
        assert report.phi.invariant_factors == (20000,)
        assert (report.c, report.t) == (1, 1)
        assert report.torsor_neron_finite is False

    def test_long_cycle_with_twenty_thousand_chords(self):
        n = 400
        edges = [(f"c{i}", i, (i + 1) % n) for i in range(n)]
        edges += [(f"h{k}", 100, 300) for k in range(20000)]
        report = self.analyzed(MultiGraph(range(n), edges))
        assert report.b1 == 20001
        # Two chains of 200 edges and 20000 single edges between the
        # same two vertices: 200 * 200 * 20000 + 200 + 200 spanning trees.
        assert report.phi.invariant_factors == (200 * 200 * 20000 + 400,)
        assert (report.c, report.t) == (1, 1)


@contextlib.contextmanager
def no_transforms_or_solve():
    """Make computing Smith transforms and calling ``solve_mod`` raise,
    with the memo emptied, so that only the Smith diagonal is available."""
    import nerongraph.homology as homology

    solve_mod = homology.solve_mod

    def no_transforms(a):
        raise AssertionError("computed Smith transforms")

    def no_solve(*args, **kwargs):
        raise AssertionError("called solve_mod")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_eliminate", no_transforms)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("nerongraph") and (
                getattr(module, "solve_mod", None) is solve_mod
            ):
                patch.setattr(module, "solve_mod", no_solve)
        smith_normal_form.cache_clear()
        try:
            yield
        finally:
            smith_normal_form.cache_clear()


class TestAnalyzeReadsOnlyTheDiagonal:
    """``analyze`` computes no Smith transforms and calls no
    ``solve_mod``: Phi comes from the diagonal, and the torsor verdict
    from the tree-flow pairing once r | c."""

    def test_guard_catches_both(self):
        with no_transforms_or_solve():
            with pytest.raises(AssertionError, match="transforms"):
                nerongraph.homology.kernel_generators_mod(IntMatrix([[2]]), 2)
            with pytest.raises(AssertionError, match="solve_mod"):
                nerongraph.solve_mod(IntMatrix([[2]]), (0,), 2)

    def test_fixture_reports_match_goldens(self, tmp_path):
        from test_golden import CASES, GOLDEN, machine_report

        fixtures = [(n, text) for n, text in CASES if "-thickness-" in n]
        assert len(fixtures) == 12
        with no_transforms_or_solve():
            for golden, text in fixtures:
                assert machine_report(tmp_path, text) == (GOLDEN / golden).read_text()

    def test_random_thick_graphs_with_r_dividing_c(self):
        outcomes = set()

        @settings(max_examples=120, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(thick_reduction_data(divided=True))
        def check(d):
            expected = regular_model_report(d)
            assert expected["group_neron_finite"]
            with no_transforms_or_solve():
                report = analyze(d)
                assert {key: getattr(report, key) for key in expected} == expected
                assert torsor_neron_finite(d) == expected["torsor_neron_finite"]
            if betti1(d.graph) > 0:
                outcomes.add(expected["torsor_neron_finite"])

        check()
        assert outcomes == {True, False}


class TestPresentationChoice:
    """``analyze`` Smith-reduces the smaller of the grounded Kirchhoff
    matrix and the Gram matrix, ties going to the Gram."""

    @staticmethod
    def reduced(monkeypatch, g):
        import nerongraph.invariants as invariants

        seen = []

        def record(a):
            seen.append(a)
            return smith_normal_form(a)

        monkeypatch.setattr(invariants, "smith_normal_form", record)
        analyze(ReductionData(graph=g, r=4))
        (a,) = seen
        return a

    def test_dense_unit_graph_gets_kirchhoff(self, monkeypatch):
        rng = random.Random(3)
        n = 12
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n + 1)]
        g = MultiGraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])
        assert g.n_edges == 2 * n
        a = self.reduced(monkeypatch, g)
        assert (a.rows, a.cols) == (n - 1, n - 1)
        assert a == kirchhoff_matrix(g)

    def test_long_cycle_gets_gram(self, monkeypatch):
        assert self.reduced(monkeypatch, cycle_graph(3000)) == IntMatrix([[3000]])

    def test_tie_goes_to_gram(self, monkeypatch):
        # b1 = 2 against V - 1 = 2: the Gram.
        g = MultiGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"),
                                         ("z", "c", "a"), ("w", "a", "b")])
        assert self.reduced(monkeypatch, g) == cycle_pairing_matrix(
            g, fundamental_cycle_basis(g)
        )

    def test_dense_unit_graph_builds_no_cycle_basis(self, monkeypatch):
        import nerongraph.invariants as invariants

        def refuse(*args, **kwargs):
            raise AssertionError("built a cycle basis or its pairing")

        monkeypatch.setattr(invariants, "fundamental_cycle_basis", refuse)
        monkeypatch.setattr(invariants, "cycle_pairing_matrix", refuse)
        g = cycle_graph(12)
        g = MultiGraph(g.vertices, [*g.edges, *(
            (f"x{i}", f"v{i}", f"v{(5 * i + 3) % 12}") for i in range(12))])
        assert g.n_edges == 2 * g.n_vertices
        degrees = {v: (-1) ** i for i, v in enumerate(g.vertices)}
        for r, torsor in ((2, False), (1, True)):  # r = 1 reaches the potentials
            d = ReductionData(graph=g, r=r, multidegree=degrees)
            report = analyze(d)
            assert report.b1 == 13 and report.c == 1
            assert report.torsor_neron_finite is torsor
            assert torsor_neron_finite(d) is torsor
            assert circuit_invariant_c(g) == 1 and index_m2(d) == r


def _path_with_loops(n: int) -> MultiGraph:
    """A path on n + 1 vertices with one loop at each vertex after the
    first: b1 = n against a Kirchhoff dimension of n, so its
    presentation is the n x n identity Gram matrix, cheap to reduce."""
    vs = list(range(n + 1))
    edges = [(f"p{v}", v - 1, v) for v in vs[1:]] + [(f"l{v}", v, v) for v in vs[1:]]
    return MultiGraph(vs, edges)


class TestPresentationBound:
    def test_limit_is_exact(self):
        limit = MAX_PRESENTATION_DIMENSION
        report = analyze(ReductionData(graph=_path_with_loops(limit), r=2))
        assert report.b1 == limit and report.phi.order == 1
        with pytest.raises(BoundsTooLarge, match="vertices, edges"):
            analyze(ReductionData(graph=_path_with_loops(limit + 1), r=2))

    def test_checked_before_any_smith_work(self, monkeypatch):
        import nerongraph.invariants as invariants

        def refuse(*args, **kwargs):
            raise AssertionError("built or reduced a presentation")

        for builder in ("smith_normal_form", "kirchhoff_matrix",
                        "cycle_pairing_matrix", "fundamental_cycle_basis"):
            monkeypatch.setattr(invariants, builder, refuse)
        g = _path_with_loops(MAX_PRESENTATION_DIMENSION + 1)
        with pytest.raises(BoundsTooLarge) as caught:
            analyze(ReductionData(graph=g, r=2))
        assert f"{g.n_vertices} vertices and {g.n_edges} edges" in str(caught.value)


class TestThicknessCost:
    def test_loop_of_thickness_a_million(self):
        d = ReductionData(graph=loop_graph(edge_thickness={"e0": 10**6}), r=4,
                          multidegree={})
        start = time.perf_counter()
        report = analyze(d)
        assert time.perf_counter() - start < 1.0
        assert report.phi.invariant_factors == (10**6,)
        assert (report.c, report.t, report.m2) == (10**6, 10**6, 1)
        assert report.group_neron_finite and report.torsor_neron_finite
        assert report.r_divided

    def test_thick_theta(self):
        # Three chains of thickness 10^6, 2 * 10^6 and 3 * 10^6 between
        # two vertices: Phi has order 11 * 10^12 (weighted tree count).
        g = MultiGraph(["a", "b"], [("x", "a", "b"), ("y", "a", "b"), ("z", "a", "b")],
                       edge_thickness={"x": 10**6, "y": 2 * 10**6, "z": 3 * 10**6})
        start = time.perf_counter()
        report = analyze(ReductionData(graph=g, r=2))
        assert time.perf_counter() - start < 1.0
        assert report.phi.order == 11 * 10**12
        assert report.c == 10**6
