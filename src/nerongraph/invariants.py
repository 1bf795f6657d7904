"""Finiteness verdicts and base-change indices from reduction data.

A :class:`ReductionData` bundles a dual graph with the torsion order r,
the semistable-reduction index m1 (an input, not computed: it is a
Galois-theoretic quantity not visible in the graph) and an optional
multidegree.  From it the circuit invariant c, the thickness invariant t
and the indices

    m2 = m1 * r / gcd(r, c)        (least index with a finite model)
    m3 = m1 * r / gcd(r, t)        (least index realised by r-torsion
                                    bundles on a twisted reduction)

are computed, together with the finiteness verdicts for the r-torsion
group scheme and for the torsor of r-th roots of a line bundle.

The component group Phi, the circuit invariant c and the verdicts live
on the dual graph of the *minimal regular model*, the thickness
subdivision of the given graph (a node of thickness eta resolves into a
chain of eta - 1 rational curves).  It has the cycle lattice of the
given graph with the pairing weighted by thickness,

    G_ij = sum over edges e of thickness(e) * gamma_i(e) * gamma_j(e)

on a fundamental cycle basis gamma_1, ..., gamma_b1 (Grothendieck's
monodromy pairing, SGA 7 IX), so everything is read off the given graph:
the breadth-first spanning tree and the index tables (endpoints and
thicknesses by edge index) that the graph built once, one scan for its
bridges and one Smith reduction.  The cost follows the size of the
graph, not its thicknesses.

* Phi is the cokernel of G, and also of the sparse grounded Kirchhoff
  matrix of the regular model (:func:`~nerongraph.homology.kirchhoff_matrix`).
  The smaller of the two is Smith-reduced and Phi read off its
  diagonal; G and the cycle basis are built only when G is the smaller.
* c is the gcd of the entries of G, its first Smith factor, so it is
  read off Phi, which G presents with b1 generators: the least
  invariant factor of Phi when Phi has b1 of them, 1 when it has fewer,
  and 0 when b1 = 0.
* The nonseparating edges are the non-bridges
  (:func:`~nerongraph.graph.bridges`); t is the gcd of their
  thicknesses.
* A multidegree lies in the image of the regular model's intersection
  matrix modulo r exactly when the pairing w of the cycle basis with a
  tree flow bounding it lies in the image of G modulo r.  The torsor
  verdict asks this only once r | c, when G is 0 modulo r, so it tests
  w = 0 modulo r, and the entry of w at the cycle of a non-tree edge is
  a difference of tree potentials across that edge: no cycle, no G and
  no Smith transforms.
* The regular model is r-divided exactly when every maximal chain of the
  given graph has total thickness divisible by r
  (:func:`~nerongraph.graph.is_r_divided`).

The tests check all of this against the subdivision and the brute-force
circuit gcd.  t reads the given (stable) graph; every edge shared by two
circuits is nonseparating, so t divides every entry of G and hence c,
which makes m1 | m2 | m3 | r*m1 hold for arbitrary thicknesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Mapping, Sequence

from .component_group import AbelianGroup
from .errors import (
    BoundsTooLarge,
    InvalidReductionData,
    MissingMultidegree,
    SemistabilityRequired,
    StabilizerMismatch,
    check_modulus,
    shown,
)
from .graph import (
    MultiGraph,
    VertexId,
    betti1,
    bridges,
    fundamental_cycle_basis,
    is_r_divided,
    spanning_tree,
    total_genus,
)
from .homology import (
    MAX_PRESENTATION_DIMENSION, cycle_pairing_matrix, kirchhoff_matrix, smith_normal_form,
)


@dataclass(frozen=True)
class ReductionData:
    """A dual graph together with r, m1 and an optional multidegree.

    The multidegree records the degrees of a line bundle on the
    irreducible components named by the graph's vertices; its total must
    be a multiple of r.
    """

    graph: MultiGraph
    r: int
    m1: int = 1
    multidegree: Mapping[VertexId, int] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise InvalidReductionData("r must be a positive integer")
        if not isinstance(self.m1, int) or isinstance(self.m1, bool) or self.m1 < 1:
            raise InvalidReductionData("m1 must be a positive integer")
        if self.multidegree is not None:
            md = dict.fromkeys(self.graph.vertices, 0)  # in vertex order
            for v, d in self.multidegree.items():
                if v not in md:
                    raise InvalidReductionData(
                        f"multidegree names unknown vertex {shown(repr(v))}"
                    )
                if not isinstance(d, int) or isinstance(d, bool):
                    raise InvalidReductionData(
                        f"multidegree of {shown(repr(v))} must be an integer"
                    )
                md[v] = d
            if sum(md.values()) % self.r != 0:
                raise InvalidReductionData(
                    "the total degree of the multidegree must be a multiple of r"
                )
            object.__setattr__(self, "multidegree", md)

    def multidegree_vector(self) -> tuple[int, ...]:
        if self.multidegree is None:
            raise MissingMultidegree("this operation needs a multidegree")
        return tuple(self.multidegree.values())


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analysis computes for one input."""

    b1: int
    genus: int
    c: int
    t: int
    phi: AbelianGroup
    phi_r: AbelianGroup
    m1: int
    m2: int
    m3: int
    group_neron_finite: bool
    torsor_neron_finite: bool | None
    r_divided: bool
    twisted_roots_finite: bool | None
    torsion_count_special_fibre: int
    torsion_count_generic: int


def _phi_and_c(g: MultiGraph) -> tuple[AbelianGroup, int]:
    """Phi and c from one Smith reduction: of the Kirchhoff matrix when
    its dimension ``n_vertices - 1 + #thick edges`` is below b1, and
    otherwise of G on the cycle basis that the graph's
    :func:`~nerongraph.graph.spanning_tree` closes up.  Raises
    :class:`BoundsTooLarge` from the counts alone, before anything is
    built, when the smaller dimension is past
    :data:`MAX_PRESENTATION_DIMENSION`."""
    b1 = betti1(g)
    kirchhoff = g.n_vertices - 1 + sum(t > 1 for t in g.thicknesses)
    dimension = min(kirchhoff, b1)
    if dimension > MAX_PRESENTATION_DIMENSION:
        raise BoundsTooLarge(
            f"vertices, edges: {g.n_vertices} vertices and {g.n_edges} edges "
            f"give a presentation of the component group of dimension "
            f"{dimension}, past the limit of {MAX_PRESENTATION_DIMENSION}"
        )
    if kirchhoff < b1:
        a = kirchhoff_matrix(g)
    else:
        a = cycle_pairing_matrix(g, fundamental_cycle_basis(g))
    phi = AbelianGroup(tuple(n for n in smith_normal_form(a).diagonal if n > 1))
    factors = phi.invariant_factors  # c: see the module docstring
    return phi, factors[0] if b1 and len(factors) == b1 else min(b1, 1)


def _degree_below(g: MultiGraph, degrees: Sequence[int]) -> dict[int, int]:
    """For each tree edge index of the graph's spanning tree, the total
    of ``degrees`` (listed in vertex order) over the vertices on the far
    side of the edge from the root."""
    parent = spanning_tree(g)
    below = list(degrees)
    out = {}
    for child in reversed(parent):  # children before parents
        up, ei = parent[child]
        out[ei] = below[child]
        below[up] += below[child]
    return out


def _torsor_finite(g: MultiGraph, below: Mapping[int, int], c: int, r: int) -> bool:
    """The torsor verdict from c and the degrees ``below`` the tree
    edges: r | c, and w = 0 modulo r, where w at the cycle of a non-tree
    edge is the potential at its tail minus that at its tip.  A vertex's
    potential sums thickness(e) * below(e) down the tree from the root,
    with no sign: a tree edge's orientation enters both the flow and the
    cycle, and the two cancel."""
    if c % r:
        return False
    thickness = g.thicknesses
    potential = [0] * g.n_vertices
    for child, (up, ei) in spanning_tree(g).items():  # parents come first
        potential[child] = potential[up] + thickness[ei] * below[ei]
    return all(
        (potential[tail] - potential[tip]) % r == 0
        for ei, (tail, tip) in enumerate(g.endpoints) if ei not in below  # non-tree
    )


def _t(g: MultiGraph, separating: frozenset[int]) -> int:
    return reduce(gcd, (eta for ei, eta in enumerate(g.thicknesses)
                        if ei not in separating), 0)


def circuit_invariant_c(g: MultiGraph) -> int:
    """The circuit invariant c of the minimal regular model: the gcd of
    the signed numbers of edges shared by pairs of its circuits (a
    circuit paired with itself counts its length); 0 when the graph has
    no circuits.  With unit thicknesses it is c of the graph itself.

    The subdivided basis cycles are circuits of the regular model, every
    circuit is an integral combination of them, and G holds their
    pairings, so by bilinearity c is the gcd of the entries of G.  It is
    read off Phi, so, like :func:`analyze`, this raises
    :class:`BoundsTooLarge` when the presentation of Phi would have a
    dimension past :data:`MAX_PRESENTATION_DIMENSION`.
    """
    return _phi_and_c(g)[1]


def thickness_invariant_t(g: MultiGraph) -> int:
    """gcd of the thicknesses of the nonseparating edges, which are the
    edges other than the :func:`~nerongraph.graph.bridges`; 0 when every
    edge is separating (compact type)."""
    return _t(g, bridges(g))


def index_m2(d: ReductionData) -> int:
    """Least index of a base extension over which the Neron model of the
    r-torsion Picard scheme becomes finite: m1 * r / gcd(r, c), where c
    is the circuit invariant of the minimal regular model and
    gcd(r, 0) = r."""
    return d.m1 * d.r // gcd(d.r, _phi_and_c(d.graph)[1])


def index_m3(d: ReductionData) -> int:
    """Least index over which the finite model moreover represents the
    r-torsion bundles of a twisted reduction: m1 * r / gcd(r, t) with
    gcd(r, 0) = r."""
    return d.m1 * d.r // gcd(d.r, thickness_invariant_t(d.graph))


def _require_semistable(d: ReductionData) -> None:
    if d.m1 != 1:
        raise SemistabilityRequired(
            "the finiteness criterion over the base needs m1 = 1"
        )


def group_neron_finite(d: ReductionData) -> bool:
    """Whether the Neron model of the r-torsion Picard scheme is finite
    over the base.

    Requires m1 = 1, i.e. the graph is the dual graph of a semistable
    (minimal regular, up to thickness subdivision) model over the base.
    True exactly when r divides every signed circuit intersection of the
    regular model, vacuously for compact type (c = 0); equivalently
    m2 = 1, equivalently Phi[r] of the regular model is all of (Z/r)^b1.
    """
    _require_semistable(d)
    return _phi_and_c(d.graph)[1] % d.r == 0


def _twisted_roots(
    g: MultiGraph, separating: frozenset[int], below: Mapping[int, int], r: int,
) -> bool:
    # A separating edge is a tree edge; the degree below it is the degree
    # on one side, and the test does not depend on the side because the
    # total degree is a multiple of r.
    return all(
        stabilizer * (below[ei] if ei in separating else 1) % r == 0
        for ei, stabilizer in enumerate(g.stabilizers)
    )


def twisted_roots_finite(d: ReductionData) -> bool:
    """Whether a twisted curve with the recorded stabilizer orders
    carries the full count of r-th roots, i.e. r^(2g) of them.

    The condition is r | #Aut(e) at every nonseparating node and
    r | #Aut(e) * d(e) at every separating node, where d(e) is the degree
    of the bundle on one side of the normalisation at e.
    """
    if d.multidegree is None:
        raise MissingMultidegree("the separating-node test needs a multidegree")
    g = d.graph
    below = _degree_below(g, d.multidegree_vector())
    return _twisted_roots(g, bridges(g), below, d.r)


def torsion_count_special(g: MultiGraph, r: int) -> int:
    """Number of r-torsion line bundles on the nodal curve itself:
    r^(2g - b1) for total genus g."""
    check_modulus(r, "r")
    return r ** (2 * total_genus(g) - betti1(g))


def torsion_count_twisted(g: MultiGraph, r: int) -> int:
    """Number of r-torsion line bundles on a twisted curve whose every
    node has stabilizer order exactly r: the full r^(2g).

    The count factors as r^(2g - b1) bundles pulled back from the coarse
    curve times r^b1 classes of gluing data (the kernel of the boundary
    map mod r).
    """
    check_modulus(r, "r")
    for e, stabilizer in zip(g.edges, g.stabilizers):
        if stabilizer != r:
            raise StabilizerMismatch(
                f"edge {shown(repr(e.id))} has stabilizer {stabilizer}, "
                f"expected {r}"
            )
    return r ** (2 * total_genus(g))


def torsor_neron_finite(d: ReductionData) -> bool:
    """Whether the Neron model of the torsor of r-th roots of the bundle
    with the given multidegree is finite over the base.

    Two conditions: the group criterion holds, and the multidegree is in
    the image of the intersection matrix of the regular model modulo r,
    i.e. some extension of the bundle has degree divisible by r on every
    component.
    """
    _require_semistable(d)
    if d.multidegree is None:
        raise MissingMultidegree("the torsor criterion needs a multidegree")
    g = d.graph
    below = _degree_below(g, d.multidegree_vector())
    return _torsor_finite(g, below, _phi_and_c(g)[1], d.r)


def analyze(d: ReductionData) -> AnalysisReport:
    """Run the full battery of invariants and verdicts on one input.

    Requires m1 = 1 (the over-the-base verdicts are undefined otherwise;
    the indices m2 and m3 remain available through :func:`index_m2` and
    :func:`index_m3` for any m1).  Phi, c and the r-divided test refer to
    the minimal regular model, i.e. the thickness subdivision of the
    graph; all of them come from one breadth-first spanning tree of the
    given graph, one scan for its bridges and one Smith reduction of the
    smaller presentation of Phi.  Raises :class:`BoundsTooLarge` when
    that presentation would have a dimension past
    :data:`MAX_PRESENTATION_DIMENSION`.
    """
    if d.m1 != 1:
        raise SemistabilityRequired("analysis reports are defined for m1 = 1")
    g, r = d.graph, d.r
    phi, c = _phi_and_c(g)
    separating = bridges(g)
    t = _t(g, separating)
    below = (None if d.multidegree is None
             else _degree_below(g, d.multidegree_vector()))
    genus = total_genus(g)
    return AnalysisReport(
        b1=betti1(g),
        genus=genus,
        c=c,
        t=t,
        phi=phi,
        phi_r=phi.torsion(r),
        m1=d.m1,
        m2=r // gcd(r, c),
        m3=r // gcd(r, t),
        group_neron_finite=c % r == 0,
        torsor_neron_finite=(
            None if below is None else _torsor_finite(g, below, c, r)
        ),
        r_divided=is_r_divided(g, r),
        twisted_roots_finite=(
            None if below is None else _twisted_roots(g, separating, below, r)
        ),
        torsion_count_special_fibre=torsion_count_special(g, r),
        torsion_count_generic=r ** (2 * genus),
    )
