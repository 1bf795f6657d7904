import pytest

from nerongraph.enumeration import connected_multigraphs


@pytest.fixture(scope="session")
def small_family():
    """Every connected multigraph with at most 6 edges, up to
    isomorphism, enumerated once per session; the walks over fewer edges
    filter it by ``n_edges`` (the same graphs, in the same order, as
    ``connected_multigraphs`` with the smaller bound)."""
    return tuple(connected_multigraphs(6))
