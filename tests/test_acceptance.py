"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``-s`` to see
them); all arithmetic is exact, so every comparison is an exact match.
The exhaustive family of connected multigraphs with at most 6 edges (up
to isomorphism) is the session fixture ``small_family`` of conftest.py.
"""

import random
import time

from nerongraph import (
    MultiGraph,
    ReductionData,
    betti1,
    boundary_matrix,
    group_neron_finite,
    index_m2,
    index_m3,
    is_r_divided,
    phi_group,
    smith_normal_form,
    spanning_tree_count,
    torsion_count_special,
    torsion_count_twisted,
    torsor_neron_finite,
    total_genus,
    verify_equivalence,
)
import nerongraph.homology as homology
from nerongraph.cli import main
from nerongraph.fixtures import fixture
from nerongraph.homology import IntMatrix, kernel_generators_mod

from helpers import (
    banana,
    decorations,
    determinant,
    divisibility_chain,
    loop_graph,
    main_diagonal,
    matmul,
    random_connected_multigraph,
    span_mod,
)


def test_criterion_1_reference_table(capsys):
    start = time.time()
    assert main(["table", "--r", "4"]) == 0
    elapsed = time.time() - start
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[3:]]
    c_values = [int(r[1]) for r in rows]
    triples = [(int(r[3]), int(r[4]), int(r[5])) for r in rows]
    assert c_values == [1, 2, 4, 2, 4, 2]
    assert triples == [(1, 4, 4), (1, 2, 4), (1, 1, 4), (1, 2, 4), (1, 1, 4), (1, 2, 4)]
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: reference table reproduced at r=4 in {elapsed:.3f}s")


def test_criterion_2_three_way_equivalence(small_family):
    start = time.time()
    report = verify_equivalence(max_edges=6, max_q=6)
    elapsed = time.time() - start
    assert report.counterexamples == []
    assert report.total_graphs == len(small_family)
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2: circuit/homology/torsion criteria agree on "
        f"{report.total_graphs} graphs x q<=6 ({report.checks} checks, "
        f"0 counterexamples) in {elapsed:.1f}s"
    )


def test_criterion_3_matrix_tree_cross_validation(small_family):
    mismatches = 0
    checked = 0
    for g in small_family:
        checked += 1
        if phi_group(g).order != spanning_tree_count(g):
            mismatches += 1
    rng = random.Random(20240601)
    for _ in range(200):
        g = random_connected_multigraph(rng, max_edges=12)
        checked += 1
        if phi_group(g).order != spanning_tree_count(g):
            mismatches += 1
    assert mismatches == 0
    print(
        f"\nPASS criterion 3: |Phi| equals the matrix-tree determinant of the "
        f"grounded Laplacian on {checked} graphs (0 mismatches)"
    )


def test_criterion_4_smith_soundness():
    rng = random.Random(424242)
    for _ in range(500):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        m = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        u, d, v = homology._eliminate(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = smith_normal_form(m).diagonal
        assert diag == main_diagonal(d)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    print("\nPASS criterion 4: 500 random Smith decompositions exact, unimodular, divisible")


def test_criterion_5_worked_examples():
    for r in (3, 5, 7):
        d = ReductionData(graph=loop_graph(), r=r)
        assert not group_neron_finite(d)
        assert index_m2(d) == r and index_m3(d) == r
    assert group_neron_finite(ReductionData(graph=banana(), r=2))
    assert not group_neron_finite(ReductionData(graph=fixture("theta-fan"), r=4))
    for name, r in (("two-squares-bridge", 4), ("grid", 2)):
        g = fixture(name)
        assert not is_r_divided(g, r)
        assert group_neron_finite(ReductionData(graph=g, r=r))
    print("\nPASS criterion 5: worked examples (loop, banana, theta-fan, bridge, grid)")


def test_criterion_6_torsor_criterion():
    odd = ReductionData(graph=banana(), r=2, multidegree={"v0": 1, "v1": -1})
    even = ReductionData(graph=banana(), r=2, multidegree={"v0": 2, "v1": 0})
    assert torsor_neron_finite(odd) is False
    assert torsor_neron_finite(even) is True
    print("\nPASS criterion 6: square roots on the banana decided by degree parity")


def test_criterion_7_divisibility_chain(small_family):
    rng = random.Random(777)
    checked = 0
    for g in small_family:
        thickness = {e.id: rng.randint(1, 9) for e in g.edges}
        thick = MultiGraph(
            g.vertices, g.edges,
            vertex_genus=decorations(g)["vertex_genus"], edge_thickness=thickness,
        )
        for r in range(1, 7):
            d = ReductionData(graph=thick, r=r)
            assert divisibility_chain(d.m1, index_m2(d), index_m3(d), r)
            checked += 1
    print(
        f"\nPASS criterion 7: m1 | m2 | m3 | r*m1 on {checked} "
        f"randomly thickened inputs"
    )


def test_criterion_8_counting_identities(small_family):
    checked = 0
    for g in small_family:
        b1 = betti1(g)
        genus = total_genus(g)
        boundary = boundary_matrix(g)
        for r in (1, 2, 3, 4):
            gens = kernel_generators_mod(boundary, r)
            kernel_size = len(span_mod(gens, g.n_edges, r))
            assert kernel_size == r ** b1
            special = torsion_count_special(g, r)
            assert special == r ** (2 * genus - b1)
            twisted_graph = MultiGraph(
                g.vertices, g.edges,
                vertex_genus=decorations(g)["vertex_genus"],
                edge_stabilizer={e.id: r for e in g.edges},
            )
            assert torsion_count_twisted(twisted_graph, r) == special * kernel_size
            assert special * kernel_size == r ** (2 * genus)
            checked += 1
    print(
        f"\nPASS criterion 8: torsion counts r^(2g-b1) and r^(2g) match the "
        f"kernel cardinalities on {checked} graph/r pairs"
    )
