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
on the dual graph of the *minimal regular model*, which is the thickness
subdivision of the given graph (a node of thickness eta resolves into a
chain of eta - 1 rational curves).  The subdivision has the same cycle
lattice as the given graph, with the pairing weighted by thickness, so
everything here is read off one object built on the given graph: the
thickness-weighted pairing

    G_ij = sum over edges e of thickness(e) * gamma_i(e) * gamma_j(e)

on a fundamental cycle basis gamma_1, ..., gamma_b1 (Grothendieck's
monodromy pairing, SGA 7 IX; see :class:`CyclePairing`).

* Phi is the cokernel of G.  It is also the cokernel of the grounded
  Kirchhoff matrix of the regular model with every unit edge's
  generator eliminated (:func:`~nerongraph.homology.kirchhoff_matrix`:
  the vertices but one, plus one generator per edge of thickness > 1),
  which is sparse.  :meth:`CyclePairing.presentation` picks the smaller
  of the two, the Kirchhoff matrix when its dimension is below b1, and
  Phi is read off the Smith diagonal of that one.  :func:`analyze`
  refuses a graph whose presentation would be larger than
  :data:`MAX_PRESENTATION_DIMENSION`, before any of it is built.
* c is the gcd of the entries of G (:meth:`CyclePairing.c`, which
  :func:`circuit_invariant_c` returns).
* The edges in the support of the basis are exactly the nonseparating
  ones; t is the gcd of their thicknesses.
* A multidegree lies in the image of the regular model's intersection
  matrix modulo r exactly when the pairing w of the basis with a tree
  flow bounding it lies in the image of G modulo r.  The torsor verdict
  asks this only once r | c, when G is 0 modulo r, so it tests w = 0
  modulo r and needs no Smith transforms.
* The regular model is r-divided exactly when every maximal chain of the
  given graph has total thickness divisible by r
  (:func:`~nerongraph.graph.is_r_divided`).

The cost thus follows the size of the graph, not its thicknesses.  The
subdivision itself stays available as
:func:`~nerongraph.graph.thickness_subdivision` and serves the tests as
an independent oracle for all of the above, with c checked against the
brute-force circuit gcd of :func:`~nerongraph.enumeration.brute_force_c`.
The thickness invariant t reads the given (stable) graph.  Keeping the
two models straight is what makes the divisibility chain
m1 | m2 | m3 | r*m1 hold for arbitrary thicknesses: every edge shared
by two circuits is nonseparating, so t divides every entry of G and
hence c.
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
    shown,
)
from .graph import (
    MultiGraph,
    VertexId,
    betti1,
    fundamental_cycle_basis,
    is_r_divided,
    spanning_tree,
    total_genus,
)
from .homology import IntMatrix, kirchhoff_matrix, smith_normal_form

#: Largest dimension of the presentation of Phi that :func:`analyze`
#: Smith-reduces.  Random unit-thickness graphs with E = 2V, whose
#: presentation is the (V - 1)-dimensional Kirchhoff matrix, took 5-9 s
#: at dimension 400 and 9-16 s at 420 on a 2-core x86-64 host; the time
#: grows much faster than the cube of the dimension.  Thick edges make
#: the entries, and the time, grow further.
MAX_PRESENTATION_DIMENSION = 400


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
            md = dict(self.multidegree)
            for v, d in md.items():
                if v not in self.graph.vertex_genus:
                    raise InvalidReductionData(
                        f"multidegree names unknown vertex {shown(repr(v))}"
                    )
                if not isinstance(d, int) or isinstance(d, bool):
                    raise InvalidReductionData(
                        f"multidegree of {shown(repr(v))} must be an integer"
                    )
            for v in self.graph.vertices:
                md.setdefault(v, 0)
            if sum(md.values()) % self.r != 0:
                raise InvalidReductionData(
                    "the total degree of the multidegree must be a multiple of r"
                )
            object.__setattr__(self, "multidegree", md)

    def multidegree_vector(self) -> tuple[int, ...]:
        if self.multidegree is None:
            raise MissingMultidegree("this operation needs a multidegree")
        return tuple(self.multidegree[v] for v in self.graph.vertices)


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


def _gcd_all(values) -> int:
    return reduce(gcd, values, 0)


def _kirchhoff_dimension(g: MultiGraph) -> int:
    """The dimension of :func:`kirchhoff_matrix` of g."""
    return g.n_vertices - 1 + sum(t > 1 for t in g.edge_thickness.values())


def _check_presentation_size(g: MultiGraph) -> None:
    """Raise :class:`BoundsTooLarge` when the presentation of Phi that
    :meth:`CyclePairing.presentation` would choose has a dimension past
    :data:`MAX_PRESENTATION_DIMENSION`; it reads only the counts."""
    dimension = min(_kirchhoff_dimension(g), betti1(g))
    if dimension > MAX_PRESENTATION_DIMENSION:
        raise BoundsTooLarge(
            f"vertices, edges: {g.n_vertices} vertices and {g.n_edges} edges "
            f"give a presentation of the component group of dimension "
            f"{dimension}, past the limit of {MAX_PRESENTATION_DIMENSION}"
        )


class CyclePairing:
    """The thickness-weighted pairing on a fundamental cycle basis.

    ``cycles[i]`` is the i-th cycle of :func:`fundamental_cycle_basis`,
    mapping its edge indices to their coefficients +1 or -1, and
    ``gram`` is the b1 x b1 matrix of
    ``G_ij = sum_e thickness(e) * cycles[i][e] * cycles[j][e]``.  It is
    the unweighted pairing of the corresponding cycles of the thickness
    subdivision, so it presents the component group of the minimal
    regular model.  ``support`` holds the edges on some basis cycle,
    which are exactly the nonseparating edges, and ``parent`` is the
    table of :func:`spanning_tree` that the basis closes up.
    """

    __slots__ = ("graph", "cycles", "gram", "support", "parent")

    def __init__(self, g: MultiGraph) -> None:
        parent = spanning_tree(g)
        cycles = tuple(fundamental_cycle_basis(g, parent))
        through: dict[int, list[tuple[int, int]]] = {}
        for i, cycle in enumerate(cycles):
            for ei, sign in cycle.items():
                through.setdefault(ei, []).append((i, sign))
        b = len(cycles)
        gram = [[0] * b for _ in range(b)]
        thickness = g.edge_thickness
        for ei, members in through.items():
            eta = thickness[g.edges[ei].id]
            for i, si in members:
                row = gram[i]
                for j, sj in members:
                    row[j] += eta * si * sj
        self.graph = g
        self.cycles = cycles
        self.gram = IntMatrix._trusted(tuple(map(tuple, gram)), b)
        self.support = frozenset(through)
        self.parent = parent

    def presentation(self) -> IntMatrix:
        """The smaller of two square matrices whose cokernel is Phi: the
        grounded Kirchhoff matrix (:func:`kirchhoff_matrix`) when its
        dimension is below b1, and G otherwise (ties go to G)."""
        if _kirchhoff_dimension(self.graph) < self.gram.rows:
            return kirchhoff_matrix(self.graph)
        return self.gram

    def c(self) -> int:
        """gcd of the entries of G; 0 when the graph has no cycles."""
        return _gcd_all(x for i in range(self.gram.rows) for x in self.gram.row(i))

    def t(self) -> int:
        """gcd of the thicknesses of the nonseparating edges; 0 when
        there are none."""
        edges, thickness = self.graph.edges, self.graph.edge_thickness
        return _gcd_all(thickness[edges[ei].id] for ei in self.support)

    def degree_below(self, degrees: Sequence[int]) -> dict[int, int]:
        """For each tree edge index, the total of ``degrees`` (listed in
        vertex order) over the vertices on the far side of the edge from
        the root."""
        below = list(degrees)
        out = {}
        for child in reversed(self.parent):  # children before parents
            up, ei = self.parent[child]
            out[ei] = below[child]
            below[up] += below[child]
        return out

    def tree_flow_pairing(self, degrees: Sequence[int]) -> tuple[int, ...]:
        """The pairing w of the basis with a tree flow that bounds the
        multidegree, padded with zeros on the exceptional components.

        Moving the total degree onto the root gives D' with the same
        residues modulo r (the total is a multiple of r) and total 0.
        The tree flow f with boundary D' carries, on each tree edge, the
        degree below it, and w_i = sum_e thickness(e) * f(e) * gamma_i(e).
        The map D' -> w induces the isomorphism between the Laplacian
        and the pairing presentations of Phi, so D' lies in the image of
        the regular model's intersection matrix modulo r exactly when w
        lies in the image of G modulo r.
        """
        g = self.graph
        thickness = g.edge_thickness
        below = self.degree_below(degrees)
        flow = {}  # thickness(e) * f(e) on the tree edges
        for child, (_, ei) in self.parent.items():
            edge = g.edges[ei]
            sign = 1 if g.vertex_index(edge.tip) == child else -1
            flow[ei] = sign * below[ei] * thickness[edge.id]
        return tuple(
            sum(flow[ei] * sign for ei, sign in cycle.items() if ei in flow)
            for cycle in self.cycles
        )


def _torsor_finite(p: CyclePairing, c: int, degrees: Sequence[int], r: int) -> bool:
    """The torsor verdict from the circuit invariant c of ``p``.

    It needs the group criterion r | c, and c is the gcd of the entries
    of G, so then G is 0 modulo r and its image modulo r is 0: the
    multidegree lies in the image of the intersection matrix modulo r
    exactly when every entry of the tree-flow pairing is 0 modulo r.
    """
    return c % r == 0 and all(x % r == 0 for x in p.tree_flow_pairing(degrees))


def circuit_invariant_c(g: MultiGraph) -> int:
    """The circuit invariant c of the minimal regular model: the gcd of
    the signed numbers of edges shared by pairs of its circuits (a
    circuit paired with itself counts its length); 0 when the graph has
    no circuits.

    The subdivided basis cycles are circuits of the regular model, every
    circuit is an integral combination of them, and G holds their
    pairings, so by bilinearity c is the gcd of the entries of G
    (:meth:`CyclePairing.c`).  With unit thicknesses it is c of the graph
    itself.
    """
    return CyclePairing(g).c()


def thickness_invariant_t(g: MultiGraph) -> int:
    """gcd of the thicknesses of the nonseparating edges; 0 when every
    edge is separating (compact type)."""
    return CyclePairing(g).t()


def index_m2(d: ReductionData) -> int:
    """Least index of a base extension over which the Neron model of the
    r-torsion Picard scheme becomes finite: m1 * r / gcd(r, c), where c
    is the circuit invariant of the minimal regular model and
    gcd(r, 0) = r."""
    return d.m1 * d.r // gcd(d.r, CyclePairing(d.graph).c())


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
    return CyclePairing(d.graph).c() % d.r == 0


def _twisted_roots(p: CyclePairing, degrees: Sequence[int], r: int) -> bool:
    g = p.graph
    below = p.degree_below(degrees)
    for ei, e in enumerate(g.edges):
        # A separating edge is a tree edge; the degree below it is the
        # degree on one side, and the test does not depend on the side
        # because the total degree is a multiple of r.
        side = 1 if ei in p.support else below[ei]
        if (g.stabilizer(e.id) * side) % r != 0:
            return False
    return True


def twisted_roots_finite(d: ReductionData) -> bool:
    """Whether a twisted curve with the recorded stabilizer orders
    carries the full count of r-th roots, i.e. r^(2g) of them.

    The condition is r | #Aut(e) at every nonseparating node and
    r | #Aut(e) * d(e) at every separating node, where d(e) is the degree
    of the bundle on one side of the normalisation at e.
    """
    if d.multidegree is None:
        raise MissingMultidegree("the separating-node test needs a multidegree")
    return _twisted_roots(CyclePairing(d.graph), d.multidegree_vector(), d.r)


def torsion_count_special(g: MultiGraph, r: int) -> int:
    """Number of r-torsion line bundles on the nodal curve itself:
    r^(2g - b1) for total genus g."""
    return r ** (2 * total_genus(g) - betti1(g))


def torsion_count_twisted(g: MultiGraph, r: int) -> int:
    """Number of r-torsion line bundles on a twisted curve whose every
    node has stabilizer order exactly r: the full r^(2g).

    The count factors as r^(2g - b1) bundles pulled back from the coarse
    curve times r^b1 classes of gluing data (the kernel of the boundary
    map mod r).
    """
    for e in g.edges:
        if g.stabilizer(e.id) != r:
            raise StabilizerMismatch(
                f"edge {shown(repr(e.id))} has stabilizer {g.stabilizer(e.id)}, "
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
    p = CyclePairing(d.graph)
    return _torsor_finite(p, p.c(), d.multidegree_vector(), d.r)


def divisibility_chain(m1: int, m2: int, m3: int, r: int) -> bool:
    """m1 | m2, m2 | m3 and m3 | r * m1."""
    if min(m1, m2, m3, r) < 1:
        raise ValueError("all arguments must be positive")
    return m2 % m1 == 0 and m3 % m2 == 0 and (r * m1) % m3 == 0


def analyze(d: ReductionData) -> AnalysisReport:
    """Run the full battery of invariants and verdicts on one input.

    Requires m1 = 1 (the over-the-base verdicts are undefined otherwise;
    the indices m2 and m3 remain available through :func:`index_m2` and
    :func:`index_m3` for any m1).  Phi, c and the r-divided test refer to
    the minimal regular model, i.e. the thickness subdivision of the
    graph; all of them come from one :class:`CyclePairing` of the given
    graph and one Smith reduction of its smaller presentation of Phi.
    Raises :class:`BoundsTooLarge` when that presentation would have a
    dimension past :data:`MAX_PRESENTATION_DIMENSION`.
    """
    if d.m1 != 1:
        raise SemistabilityRequired("analysis reports are defined for m1 = 1")
    g, r = d.graph, d.r
    _check_presentation_size(g)
    p = CyclePairing(g)
    phi = AbelianGroup(
        tuple(n for n in smith_normal_form(p.presentation()).diagonal if n > 1)
    )
    c, t = p.c(), p.t()
    group_finite = c % r == 0
    degrees = None if d.multidegree is None else d.multidegree_vector()
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
        group_neron_finite=group_finite,
        torsor_neron_finite=(
            None if degrees is None else _torsor_finite(p, c, degrees, r)
        ),
        r_divided=is_r_divided(g, r),
        twisted_roots_finite=(
            None if degrees is None else _twisted_roots(p, degrees, r)
        ),
        torsion_count_special_fibre=torsion_count_special(g, r),
        torsion_count_generic=r ** (2 * genus),
    )
