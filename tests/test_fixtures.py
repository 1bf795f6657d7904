from nerongraph import (
    ReductionData,
    betti1,
    circuit_invariant_c,
    index_m2,
    index_m3,
    paper_fixtures,
    thickness_invariant_t,
    total_genus,
)
from nerongraph.fixtures import FIXTURE_NAMES, fixture

import pytest

EXPECTED = {
    # name: (vertices, edges, b1, c)
    "loop": (1, 1, 1, 1),
    "banana": (2, 2, 1, 2),
    "square": (4, 4, 1, 4),
    "theta-fan": (5, 6, 2, 2),
    "two-squares-bridge": (8, 9, 2, 4),
    "grid": (8, 10, 3, 2),
}


def test_names_in_table_order():
    assert FIXTURE_NAMES == (
        "loop", "banana", "square", "theta-fan", "two-squares-bridge", "grid"
    )


def test_unknown_name():
    with pytest.raises(KeyError):
        fixture("heptagon")


def test_shapes_and_circuit_invariants():
    for name, g in paper_fixtures():
        nv, ne, b1, c = EXPECTED[name]
        assert (g.n_vertices, g.n_edges) == (nv, ne)
        assert betti1(g) == b1
        assert circuit_invariant_c(g) == c
        assert thickness_invariant_t(g) == 1


def test_fixtures_are_stable_curves():
    # every genus-0 component carries at least three branches of nodes
    for _, g in paper_fixtures():
        for i, genus in enumerate(g.genera):
            if genus == 0:
                assert sum((tail == i) + (tip == i) for tail, tip in g.endpoints) >= 3
        assert total_genus(g) >= 2


@pytest.mark.parametrize("r", [4, 8, 12])
def test_index_columns_scale_with_r(r):
    ratios = {"loop": 1, "banana": 2, "square": 4, "theta-fan": 2,
              "two-squares-bridge": 4, "grid": 2}
    for name, g in paper_fixtures():
        d = ReductionData(graph=g, r=r)
        assert index_m2(d) == r // ratios[name]
        assert index_m3(d) == r
