import collections
import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerongraph import (
    AbelianGroup,
    DimensionMismatch,
    MultiGraph,
    betti1,
    boundary_matrix,
    intersection_matrix,
    phi_group,
    smith_normal_form,
    solve_mod,
    spanning_tree_count,
    thickness_subdivision,
)
import nerongraph.homology as homology
from nerongraph.graph import fundamental_cycle_basis
from nerongraph.homology import (
    IntMatrix,
    cycle_pairing_matrix,
    kernel_generators_mod,
    kirchhoff_matrix,
)

from helpers import (
    CyclePairing,
    banana,
    brute_image_contains,
    brute_kernel,
    coboundary_matrix,
    determinant,
    determinantal_divisors,
    identity,
    loop_graph,
    main_diagonal,
    matmul,
    path_graph,
    random_connected_multigraph,
    scrambled,
    span_mod,
    subgroup_contained_mod,
    transpose,
    zeros,
)


@st.composite
def int_matrices(draw, max_dim=5, bound=20):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = [
        [draw(st.integers(-bound, bound)) for _ in range(cols)] for _ in range(rows)
    ]
    return IntMatrix(entries, cols=cols)


class TestIntMatrix:
    def test_shapes_and_indexing(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 2] == 6
        assert m.column(1) == (2, 5)
        assert m.row_list()[1] == [4, 5, 6]

    def test_zero_dimensions(self):
        m = zeros(0, 3)
        assert (m.rows, m.cols) == (0, 3)
        assert m.apply((1, 2, 3)) == () and m.row_list() == []
        assert zeros(2, 0).apply(()) == (0, 0)
        assert zeros(0, 2) != zeros(0, 3)

    def test_multiplication(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.apply((0, 1)) == (2, 4) and a.apply((1, 0)) == (1, 3)
        with pytest.raises(DimensionMismatch):
            a.apply((1, 2, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5]])
        with pytest.raises(TypeError):
            IntMatrix([[True]])

    def test_hashable_by_value(self):
        assert hash(IntMatrix([[1, 2]])) == hash(IntMatrix([[1, 2]]))
        assert IntMatrix([[1], [2]]) != IntMatrix([[1, 2]])

    def test_determinant(self):
        assert determinant(identity(4)) == 1
        assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
        assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0
        assert determinant(IntMatrix([], cols=0)) == 1

    @given(int_matrices(max_dim=4, bound=9))
    def test_determinant_matches_cofactor_expansion(self, m):
        if m.rows != m.cols:
            return

        def cofactor(rows):
            if not rows:
                return 1
            total = 0
            for j, pivot in enumerate(rows[0]):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * pivot * cofactor(minor)
            return total

        assert determinant(m) == cofactor(m.row_list())


class TestGraphMatrices:
    def test_loop_boundary_is_zero(self):
        assert boundary_matrix(loop_graph()) == zeros(1, 1)

    def test_single_edge_column(self):
        g = path_graph(1)
        assert boundary_matrix(g).column(0) == (-1, 1)

    def test_banana_columns(self):
        b = boundary_matrix(banana())
        assert b.column(0) == (-1, 1) and b.column(1) == (-1, 1)

    def test_coboundary_is_transpose(self):
        for g in (banana(), path_graph(2), loop_graph()):
            assert coboundary_matrix(g) == transpose(boundary_matrix(g))

    def test_coboundary_is_transpose_exhaustively(self, small_family):
        for g in small_family:
            b = boundary_matrix(g)
            assert coboundary_matrix(g) == transpose(b)
            for j, e in enumerate(g.edges):
                expected = [0] * g.n_vertices
                if e.tail != e.tip:
                    expected[g.vertices.index(e.tip)] = 1
                    expected[g.vertices.index(e.tail)] = -1
                assert b.column(j) == tuple(expected)

    def test_edgeless_shapes(self):
        g = path_graph(0)
        assert (boundary_matrix(g).rows, boundary_matrix(g).cols) == (1, 0)
        assert (coboundary_matrix(g).rows, coboundary_matrix(g).cols) == (0, 1)

    def test_coboundary_shape_path_two(self):
        assert (coboundary_matrix(path_graph(2)).rows,
                coboundary_matrix(path_graph(2)).cols) == (2, 3)

    def test_intersection_banana(self):
        assert intersection_matrix(banana()) == IntMatrix([[-2, 2], [2, -2]])

    def test_intersection_loop(self):
        assert intersection_matrix(loop_graph()) == IntMatrix([[0]])

    def test_intersection_single_edge(self):
        assert intersection_matrix(path_graph(1)) == IntMatrix([[-1, 1], [1, -1]])

    def test_intersection_structure_exhaustively(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            b = boundary_matrix(g)
            m = intersection_matrix(g)
            minus_m = matmul(b, transpose(b))
            assert m.row_list() == [[-x for x in row] for row in minus_m.row_list()]
            assert m == transpose(m)
            for i in range(m.rows):
                assert sum(m.row_list()[i]) == 0
                assert sum(m.column(i)) == 0

    def test_boundary_rank_and_nullity(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 5]:
            diag = smith_normal_form(boundary_matrix(g)).diagonal
            nonzero = [d for d in diag if d != 0]
            assert nonzero == [1] * (g.n_vertices - 1)
            assert g.n_edges - len(nonzero) == betti1(g)


def _phi_factors(a: IntMatrix) -> tuple[int, ...]:
    return tuple(d for d in smith_normal_form(a).diagonal if d > 1)


class TestKirchhoffMatrix:
    def test_banana_with_one_thick_edge(self):
        # Vertex v0 is grounded; e1's generator has +2 on the diagonal
        # and -1 at its tip v1.  The subdivision is a 3-cycle: Z/3.
        g = banana(edge_thickness={"e1": 2})
        assert kirchhoff_matrix(g) == IntMatrix([[-1, -1], [-1, 2]])
        assert _phi_factors(kirchhoff_matrix(g)) == (3,)

    def test_unit_graph_is_the_grounded_intersection_matrix(self, small_family):
        # The degree is minus M's diagonal (loops add nothing).  The
        # vertex of largest degree is grounded and the others follow by
        # ascending degree, ties to the lower index.
        for g in [h for h in small_family if h.n_edges <= 5]:
            m = intersection_matrix(g)
            degree = [-m[v, v] for v in range(m.rows)]
            ground = max(range(m.rows), key=lambda v: (degree[v], -v))
            rest = sorted(set(range(m.rows)) - {ground}, key=lambda v: (degree[v], v))
            expected = IntMatrix([[m[i, j] for j in rest] for i in rest], cols=len(rest))
            assert kirchhoff_matrix(g) == expected

    def test_distinct_degrees_fix_the_ground_and_the_order(self):
        # Degrees a 3, b 1, c 4, d 2 (b's loop counts for nothing): c is
        # grounded and the rows are b, d, a.  A triangle with one
        # doubled side and a pendant vertex: Z/5.
        edges = [("e0", "c", "b"), ("e1", "c", "d"), ("e2", "d", "a"),
                 ("e3", "a", "c"), ("e4", "a", "c")]
        g = MultiGraph("abcd", edges + [("e5", "b", "b")])
        assert kirchhoff_matrix(g) == IntMatrix([[-1, 0, 0], [0, -2, 1], [0, 1, -3]])
        assert kirchhoff_matrix(g) == kirchhoff_matrix(MultiGraph("abcd", edges))
        assert _phi_factors(kirchhoff_matrix(g)) == (5,)

    def test_loops(self):
        assert kirchhoff_matrix(loop_graph()) == IntMatrix([], cols=0)
        assert kirchhoff_matrix(loop_graph(edge_thickness={"e0": 5})) == IntMatrix([[5]])
        assert kirchhoff_matrix(path_graph(0)) == IntMatrix([], cols=0)

    def test_thick_edge_at_the_grounded_vertex(self):
        # v1 has the largest degree and is grounded; the rows are v0,
        # v2, then e0's generator, which couples only to v0.
        g = MultiGraph(["v0", "v1", "v2"], [("e0", "v0", "v1"), ("e1", "v1", "v2")],
                       edge_thickness={"e0": 4})
        assert kirchhoff_matrix(g) == IntMatrix(
            [[0, 0, 1], [0, -1, 0], [1, 0, 4]]
        )

    def test_same_group_as_gram_and_subdivision(self):
        # Oracles: the Gram matrix of the cycle pairing and the
        # intersection matrix of the thickness subdivision.
        rng = random.Random(10)
        kirchhoff_chosen, with_loops = set(), set()
        for _ in range(1000):
            g = random_connected_multigraph(
                rng, max_edges=14, thickness_range=(1, 6)
            )
            k = kirchhoff_matrix(g)
            gram = CyclePairing(g).gram
            assert k.rows == k.cols == g.n_vertices - 1 + sum(
                eta > 1 for eta in g.thicknesses
            )
            expected = _phi_factors(intersection_matrix(thickness_subdivision(g)))
            assert _phi_factors(k) == expected
            assert _phi_factors(gram) == expected
            kirchhoff_chosen.add(k.rows < gram.rows)
            with_loops.add(any(tail == tip for tail, tip in g.endpoints))
        smith_normal_form.cache_clear()
        assert kirchhoff_chosen == with_loops == {True, False}

    def test_oracles_at_benchmark_size(self, monkeypatch):
        # The analyze-random shape: the Smith diagonal of the reordered
        # matrix against the matrix-tree count and the Smith form of the
        # intersection matrix, both in vertex order.  Some of the
        # reordered matrices end in a dense tail without ±1 pivots, which
        # the determinant route finishes.
        rng = random.Random(21)
        routed = []
        route = homology._tail_by_determinant
        monkeypatch.setattr(homology, "_tail_by_determinant",
                            lambda d, t: routed.append(route(d, t)) or routed[-1])
        for _ in range(30):
            g = _unit_graph(rng, rng.randint(16, 64))
            diagonal = homology._smith_diagonal(kirchhoff_matrix(g))
            assert prod(d for d in diagonal if d) == spanning_tree_count(g)
            assert AbelianGroup(tuple(d for d in diagonal if d > 1)) == phi_group(g)
        assert sum(tail is not None for tail in routed) >= 5
        smith_normal_form.cache_clear()

    def test_relabelling_keeps_the_group(self):
        rng = random.Random(22)
        for _ in range(300):
            g = random_connected_multigraph(rng, max_edges=14, thickness_range=(1, 6))
            assert _phi_factors(kirchhoff_matrix(scrambled(rng, g))) == _phi_factors(
                kirchhoff_matrix(g))
        smith_normal_form.cache_clear()


class TestCyclePairingMatrix:
    def test_thick_banana(self):
        g = banana(edge_thickness={"e0": 2, "e1": 3})
        assert cycle_pairing_matrix(g, fundamental_cycle_basis(g)) == IntMatrix([[5]])

    def test_no_cycles(self):
        g = path_graph(3)
        assert cycle_pairing_matrix(g, fundamental_cycle_basis(g)) == IntMatrix([], cols=0)

    def test_matches_the_oracle_with_reversed_edges(self):
        rng = random.Random(11)
        for _ in range(300):
            g = scrambled(rng, random_connected_multigraph(
                rng, max_edges=14, thickness_range=(1, 6)))
            gram = cycle_pairing_matrix(g, fundamental_cycle_basis(g))
            assert gram == CyclePairing(g).gram


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(identity(3)).diagonal == (1, 1, 1)
        assert homology._eliminate(identity(3))[1] == identity(3)

    def test_zero(self):
        assert smith_normal_form(zeros(2, 3)).diagonal == (0, 0)
        assert homology._eliminate(zeros(2, 3))[1] == zeros(2, 3)

    def test_square_cycle_intersection(self):
        from helpers import cycle_graph

        snf = smith_normal_form(intersection_matrix(cycle_graph(4)))
        assert snf.diagonal == (1, 1, 4, 0)

    def test_deterministic(self):
        entries = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
        a = homology._eliminate(IntMatrix(entries))
        b = homology._eliminate(IntMatrix([row[:] for row in entries]))
        assert a == b

    @staticmethod
    def assert_valid(m):
        u, d, v = homology._eliminate(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = smith_normal_form(m).diagonal
        assert diag == main_diagonal(d)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i, j] == 0

    @given(int_matrices())
    @settings(max_examples=200)
    def test_properties_random(self, m):
        self.assert_valid(m)

    def test_properties_graph_matrices(self, small_family):
        for g in [h for h in small_family if h.n_edges <= 4]:
            self.assert_valid(boundary_matrix(g))
            self.assert_valid(intersection_matrix(g))


@st.composite
def small_matrices(draw):
    """0-4 rows and columns of entries in -9..9, some scaled by a common
    factor and some made singular by a last row that repeats a multiple
    of the first."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entries = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        entries[-1] = [k * x for x in entries[0]]
    scale = draw(st.sampled_from((1, 1, 2, 6, 35)))
    return IntMatrix([[scale * x for x in row] for row in entries], cols=cols)


def invariant_factors(m):
    """The Smith diagonal from the determinantal divisors d_k (the gcd of
    the k x k minors): d_1, d_2 / d_1, d_3 / d_2, ..., and 0 from the
    first d_k that is 0 on."""
    out, prev = [], 1
    for d_k in determinantal_divisors(m):
        out.append(d_k // prev if d_k else 0)
        prev = d_k or 1
    return tuple(out)


class TestSmithDiagonalOracle:
    """The memoised diagonal, computed without transforms, against the
    determinantal divisors and the D of the elimination with
    transforms."""

    @given(small_matrices())
    @settings(max_examples=300, deadline=None)
    def test_diagonal_matches_determinantal_divisors(self, m):
        # A fresh diagonal, not one the memo kept.
        diag = smith_normal_form.__wrapped__(m).diagonal
        u, d, v = homology._eliminate(m)
        assert diag == invariant_factors(m)
        assert smith_normal_form(m).diagonal == diag
        assert (d.rows, d.cols) == (m.rows, m.cols)
        assert d == IntMatrix(
            [[diag[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)],
            cols=m.cols,
        )
        assert matmul(matmul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1

    def test_eliminate_runs_only_in_the_solvers(self, monkeypatch):
        # The memo holds the diagonal of its own loop alone; each solver
        # runs the elimination with transforms once, whatever q.
        calls = []
        for name in ("_smith_diagonal", "_eliminate"):
            inner = getattr(homology, name)
            monkeypatch.setattr(
                homology, name,
                lambda a, name=name, inner=inner: calls.append(name) or inner(a),
            )
        m = IntMatrix([[2, 4], [6, 9]])
        assert smith_normal_form.__wrapped__(m).diagonal == (1, 6)
        assert calls == ["_smith_diagonal"]
        for solve in (lambda: solve_mod(m, (1, 0), 4),
                      lambda: kernel_generators_mod(m, 12),
                      lambda: kernel_generators_mod(m, 1)):
            del calls[:]
            solve()
            assert calls == ["_eliminate"]

    @pytest.mark.parametrize("entries", [
        [[2, 4], [6, 9]],
        [[6, 4, 2], [4, 8, 0], [2, 0, 10]],
        [[2, 0, 4], [0, 6, 3]],
        [[1, 2], [2, 4], [3, 6]],
    ])
    def test_eliminate_shares_no_pivot_rule_with_the_diagonal(self, monkeypatch, entries):
        # The oracle of _smith_diagonal takes none of its shortcuts: with
        # the unit-first pivot rule broken, the transforms and both
        # solvers still agree with the determinantal divisors.
        def broken(d, t):
            raise RuntimeError("_unit_pivot is the rule of _smith_diagonal alone")

        monkeypatch.setattr(homology, "_unit_pivot", broken)
        m = IntMatrix(entries)
        u, d, v = homology._eliminate(m)
        diag = invariant_factors(m)
        assert main_diagonal(d) == diag and matmul(matmul(u, m), v) == d
        padded = diag + (0,) * (m.cols - len(diag))
        for q in (4, 6):
            kernel = brute_kernel(m, q)
            assert len(kernel) == prod(gcd(x, q) for x in padded)
            assert span_mod(kernel_generators_mod(m, q), m.cols, q) == kernel
            # solve_mod checks every solution it returns against m.
            solvable = sum(
                solve_mod(m, b, q) is not None
                for b in itertools.product(range(q), repeat=m.rows)
            )
            assert solvable == q**m.cols // len(kernel)

    def test_determinant_route_against_the_transforms(self, monkeypatch):
        # U diag(s) V with a planted Smith diagonal s and random
        # unimodular U and V, of dimension 9-18, some doubled so that no
        # ±1 is ever left, some singular, some whose g has two primes
        # past 16 and some whose g keeps a prime past 2**32; dense
        # matrices with no entry below 2; and, for the gates, doubled
        # ones too small, sparse or not square.  The log checks that the
        # route runs exactly when every gate lets it, and counts each
        # branch and each gate that alone declines.
        rng = random.Random(31)
        rough = 2**32 + 15  # a prime that trial division below 2**16 leaves whole
        cases = []
        for n in range(9, 19):
            cases += [_planted(rng, n), _planted(rng, n, scale=2),
                      _planted(rng, n, scale=2, last=(0,)),
                      _planted(rng, n, scale=2, last=(17 * 19,) * 3),
                      _planted(rng, n, scale=2, last=(rough,) * 4)]
            cases.append((IntMatrix([[rng.choice((-1, 1)) * rng.randint(2, 99)
                                      for _ in range(n)] for _ in range(n)]), None))
        wide, _ = _planted(rng, 12, scale=2)
        cases.append((IntMatrix([row + [2 * rng.randint(1, 9)] for row in wide.row_list()]),
                      None))
        blocks = [_planted(rng, 3, scale=2)[0] for _ in range(4)]
        cases.append((IntMatrix([[0] * (3 * b) + row + [0] * (9 - 3 * b)
                                 for b, block in enumerate(blocks) for row in block.row_list()]),
                      None))
        log = _RouteLog(monkeypatch)
        for m, planted in cases:
            log.start()
            diagonal = homology._smith_diagonal(m)
            log.finish()
            assert diagonal == main_diagonal(homology._eliminate(m)[1])
            if planted is not None:
                assert diagonal == planted
        for branch in ("one", "modular", "singular", "rough",
                       "streak", "size", "density", "square", "once"):
            assert log.seen[branch], (branch, log.seen)


class _RouteLog:
    """Watches :func:`homology._smith_diagonal` through the functions it
    calls by their module names: at each step, the gates of the
    determinant route; then whether the route ran where they all let it,
    and which branch it took."""

    def __init__(self, monkeypatch):
        self.seen = collections.Counter()
        self.unit_pivot = homology._unit_pivot
        self.route = homology._tail_by_determinant
        self.exponents = homology._exponents_modulo
        monkeypatch.setattr(homology, "_unit_pivot", self.watch_pivot)
        monkeypatch.setattr(homology, "_tail_by_determinant", self.watch_route)
        monkeypatch.setattr(homology, "_exponents_modulo", self.watch_exponents)

    def start(self):
        self.misses, self.tried, self.due, self.waited = 0, False, False, 0

    def finish(self):
        assert not self.due, "every gate let the route run, and it did not"

    def watch_pivot(self, d, t):
        self.finish()
        p = self.unit_pivot(d, t)
        if p is not None:
            i, j = p
            self.misses = 0 if abs(d[i][j]) == 1 else self.misses + 1
            n, width = len(d) - t, len(d[0]) - t
            nonzero = sum(1 for row in d[t:] for x in row[t:] if x)
            declined = [name for name, passed in (
                ("streak", self.misses >= 3), ("once", not self.tried),
                ("square", n == width), ("size", 9 <= n <= 64),
                ("density", 4 * nonzero > 3 * n * width)) if not passed]
            if len(declined) == 1:
                self.seen[declined[0]] += 1
            self.waited += bool(declined) and set(declined) <= {"size", "density"}
            self.due = not declined
        return p

    def watch_route(self, d, t):
        assert self.due, "the route ran where a gate should have declined"
        self.tried, self.due, self.modular = True, False, False
        out = self.route(d, t)
        block = IntMatrix([row[t:] for row in d[t:]])
        if out is None:
            self.seen["rough" if determinant(block) else "singular"] += 1
        else:
            self.seen["modular" if self.modular else "one"] += 1
        return out

    def watch_exponents(self, block, p, e):
        self.modular = True
        return self.exponents(block, p, e)


def _unimodular(rng: random.Random, n: int) -> IntMatrix:
    """A random n x n matrix of determinant ±1: 3n random row additions
    with multipliers ±1 and ±2 to the identity, then a row shuffle."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return IntMatrix(m)


def _planted(rng: random.Random, n: int, scale: int = 1,
             last: tuple[int, ...] = ()) -> tuple[IntMatrix, tuple[int, ...]]:
    """U diag(s) V and s: s is a random divisibility chain of length n
    whose last entries are multiplied by ``last``, times ``scale``."""
    s, x = [], 1
    for _ in range(n - len(last)):
        x *= rng.choice((1, 1, 1, 1, 2, 3, 5, 6))
        s.append(scale * x)
    s += [scale * x * y for y in last]
    diagonal = IntMatrix([[s[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return matmul(matmul(_unimodular(rng, n), diagonal), _unimodular(rng, n)), tuple(s)


def _unit_graph(rng: random.Random, n: int) -> MultiGraph:
    """A random tree on n vertices plus n + 1 random edges (loops and
    parallels allowed): E = 2V at unit thickness."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)]
    return MultiGraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])


@st.composite
def sparse_matrices(draw):
    """0-9 rows and columns, each entry 0 with probability 0.7 and else
    a unit, a small non-unit or the 71-bit 2**70 + 1; rectangular and
    singular matrices come up on their own."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    nonzero = st.sampled_from((1, -1, 2, -2, 3, -3, 6, -35, 2**70 + 1))
    entries = [
        [draw(nonzero) if draw(st.integers(0, 9)) >= 7 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    return IntMatrix(entries, cols=cols)


def _boundaries():
    return st.builds(
        lambda seed: boundary_matrix(
            random_connected_multigraph(random.Random(seed), max_edges=12)),
        st.integers(0, 2**32),
    )


@st.composite
def _entries_from(draw, values):
    """0-6 rows and columns of the given values, rectangular and, by a
    last row that repeats the first, singular."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entries = [[draw(st.sampled_from(values)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        entries[-1] = entries[0][:]
    return IntMatrix(entries, cols=cols)


class TestEliminate:
    """The elimination with transforms, whose pivot is the first ±1 of
    the first row that holds one and whose operations touch only the
    support of the row they add."""

    @given(st.one_of(
        _boundaries(),
        _entries_from((0, 0, 1, -1, 2, -2)),
        _entries_from((0, 1, -1, 2**61 + 1, -(2**62) + 3, 3 * 2**60, -(2**63))),
    ))
    @settings(max_examples=300, deadline=None)
    def test_transforms(self, m):
        u, d, v = homology._eliminate(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diagonal = homology._smith_diagonal(m)
        assert d == IntMatrix(
            [[diagonal[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)],
            cols=m.cols,
        )


@st.composite
def _large_matrices(draw):
    """1-4 rows and columns whose entries pass 2**60, some scaled by a
    common factor past it.  Among the values, 2**60 and 3 * 2**59 make a
    remainder of exactly half the pivot, the tie of nearest-integer
    quotients, and a float quotient of such entries would round."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.one_of(
        st.integers(-(2**66), 2**66),
        st.integers(-3, 3),
        st.sampled_from((2**60, -(2**60), 3 * 2**59, 2**61 + 1, 2**53 + 1, -(2**63))),
    )
    scale = draw(st.sampled_from((1, 1, 6, 2**61 + 3)))
    entries = [[scale * draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        entries[-1] = [2 * x for x in entries[0]]
    return IntMatrix(entries, cols=cols)


class TestSmithDiagonal:
    """The diagonal-only loop, whose entries are put in divisibility
    order at the end by pairwise gcd and lcm, against the elimination
    with transforms and the determinantal divisors."""

    @given(_large_matrices())
    @settings(max_examples=300, deadline=None)
    def test_large_entries(self, m):
        # Nearest-integer quotients in integers: exact past 2**53.
        diagonal = homology._smith_diagonal(m)
        assert diagonal == main_diagonal(homology._eliminate(m)[1])
        assert diagonal == invariant_factors(m)

    @pytest.mark.parametrize("rows, expected", [
        ([[4, 0], [0, 6]], (2, 12)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
        # Singular and rectangular: rank 2 of 3, zeros last.
        ([[0, 6, 0, 0], [0, 0, 0, 4], [0, 0, 0, 0]], (2, 12, 0)),
        ([[0, 0, 10], [0, 0, 0], [0, 4, 0], [0, 8, 0]], (2, 20, 0)),
    ])
    def test_fix_up_decides(self, rows, expected):
        m = IntMatrix(rows)
        assert homology._smith_diagonal(m) == expected
        assert homology._smith_diagonal(IntMatrix([[-x for x in row] for row in rows])) == expected
        assert expected == invariant_factors(m)
        assert main_diagonal(homology._eliminate(m)[1]) == expected

    def test_empty_and_zero(self):
        assert homology._smith_diagonal(IntMatrix([], cols=3)) == ()
        assert homology._smith_diagonal(IntMatrix([[], []])) == ()
        assert homology._smith_diagonal(zeros(2, 3)) == (0, 0)

    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_sparse_matrices(self, m):
        diagonal = homology._smith_diagonal(m)
        assert diagonal == main_diagonal(homology._eliminate(m)[1])
        if min(m.rows, m.cols) <= 4:
            assert diagonal == invariant_factors(m)

    def test_support_follows_the_pivot_row(self):
        # No entry is +-1, so the pivot is the 2 alone in the first row.
        # Euclid leaves 1 in every row below and swaps in the first of
        # them, which is dense: the next round must subtract multiples
        # of its entries, not of the old pivot row's (none).
        m = IntMatrix([[2, 0, 0, 0], [3, 5, 7, 4], [5, 4, 9, 6], [7, 8, 3, 10]])
        assert invariant_factors(m) == (1, 1, 2, 176)
        assert homology._smith_diagonal(m) == (1, 1, 2, 176)

    def test_graph_matrices_against_the_transforms(self, monkeypatch):
        # Kirchhoff and Gram matrices of random thick graphs, and the
        # Kirchhoff matrices of unit E = 2V graphs, on which the +-1
        # pivots run out partway and the smallest-entry pivot takes over.
        fallbacks = []
        pivot = homology._pivot
        monkeypatch.setattr(
            homology, "_pivot", lambda d, t: fallbacks.append(t) or pivot(d, t))
        rng = random.Random(20)
        matrices = []
        for _ in range(150):
            g = random_connected_multigraph(rng, max_edges=14, thickness_range=(1, 32))
            matrices.append(kirchhoff_matrix(g))
            matrices.append(cycle_pairing_matrix(g, fundamental_cycle_basis(g)))
        unit = [kirchhoff_matrix(_unit_graph(rng, rng.randint(16, 64))) for _ in range(8)]
        for m in matrices + unit:
            del fallbacks[:]
            diagonal = homology._smith_diagonal(m)
            assert diagonal == main_diagonal(homology._eliminate(m)[1])
            if m in unit:
                assert fallbacks and fallbacks[0] > 0

    def test_ladder_never_takes_the_determinant_route(self, monkeypatch):
        # The Gram matrix of the 2 x 200 unit ladder is dense and has no
        # ±1, but Euclid leaves ±1 pivots after its first step: the steps
        # without one are t = 0, 2, 3, 197 and 198.
        def refuse(d, t):
            raise AssertionError("the determinant route ran on the ladder")

        monkeypatch.setattr(homology, "_tail_by_determinant", refuse)
        g = _ladder(200)
        gram = cycle_pairing_matrix(g, fundamental_cycle_basis(g))
        assert gram.rows == 199
        nontrivial = [x for x in homology._smith_diagonal(gram) if x > 1]
        assert nontrivial == [x for x in homology._smith_diagonal(kirchhoff_matrix(g)) if x > 1]

    @pytest.mark.parametrize("k", [10, 12])
    def test_thick_grid_tails_wait_until_small_and_dense(self, monkeypatch, k):
        # The tails of the k x k grid with thicknesses 1-32 (seed 1) lose
        # their ±1 pivots while still sparse or larger than 64 x 64: the
        # route waits there, and runs once they are small and dense,
        # with the diagonal of the Euclid loop alone.
        g = _thick_grid(k, random.Random(1))
        for m in (kirchhoff_matrix(g), cycle_pairing_matrix(g, fundamental_cycle_basis(g))):
            log = _RouteLog(monkeypatch)
            log.start()
            diagonal = homology._smith_diagonal(m)
            log.finish()
            assert log.waited and log.seen["one"] + log.seen["modular"] == 1
            monkeypatch.setattr(homology, "_tail_by_determinant", lambda d, t: None)
            assert diagonal == homology._smith_diagonal(m)
            monkeypatch.undo()

    def test_singular_dense_block_tries_the_route_once(self, monkeypatch):
        # Every two of 12 vertices joined by 2, 4 or 6 unit edges: the
        # intersection matrix is even, so it has no ±1, and singular, so
        # the route is tried once, declines, and Euclid finishes.  Its
        # rows sum to zero, which shows it singular before Bareiss: no
        # product of a Bareiss step is formed.
        class Unmultiplied(int):
            def __mul__(self, other):
                raise AssertionError("Bareiss ran on rows that sum to zero")

            __rmul__ = __mul__

        rng = random.Random(33)
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)
                 for _ in range(rng.choice((2, 4, 6)))]
        g = MultiGraph(range(12), [(i, u, v) for i, (u, v) in enumerate(pairs)])
        oracle = main_diagonal(homology._eliminate(intersection_matrix(g))[1])
        calls = []
        route = homology._tail_by_determinant
        monkeypatch.setattr(homology, "_tail_by_determinant",
                            lambda d, t: calls.append(route(d, t)) or calls[-1])
        smith_normal_form.cache_clear()
        phi = phi_group(g)
        assert calls == [None]
        assert phi == AbelianGroup(tuple(x for x in oracle if x > 1))
        rows = [[Unmultiplied(x) for x in row] for row in intersection_matrix(g).row_list()]
        assert route(rows, 0) is None


def _ladder(n: int) -> MultiGraph:
    """The 2 x n ladder at unit thickness, rails a and b, its edges listed
    square by square: rung i, then the rail edges from a_i and b_i."""
    pairs = []
    for i in range(n - 1):
        pairs += [(f"a{i}", f"b{i}"), (f"a{i}", f"a{i + 1}"), (f"b{i}", f"b{i + 1}")]
    pairs.append((f"a{n - 1}", f"b{n - 1}"))
    return MultiGraph([f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)],
                      [(e, u, v) for e, (u, v) in enumerate(pairs)])


def _thick_grid(k: int, rng: random.Random) -> MultiGraph:
    """The k x k grid, rows of edges first, then columns, each edge of a
    thickness drawn uniformly from 1-32 in that order."""
    pairs = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    pairs += [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    return MultiGraph(range(k * k), [(e, u, v) for e, (u, v) in enumerate(pairs)],
                      edge_thickness={e: rng.randint(1, 32) for e in range(len(pairs))})


class TestSolveMod:
    def test_banana_image_examples(self):
        m = intersection_matrix(banana())
        assert solve_mod(m, (1, 1), 2) is None
        assert solve_mod(m, (2, 0), 2) is not None

    def test_zero_vector_always_in_image(self):
        m = intersection_matrix(banana())
        for q in (1, 2, 3, 4):
            assert solve_mod(m, (0, 0), q) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_mod(identity(2), (1, 1, 1), 2)

    def test_wrong_decomposition_is_caught(self, monkeypatch):
        # An elimination that claims D = diag(1, 1) for diag(2, 3) with
        # identity transforms yields the "solution" (1, 1), which the
        # re-check must refuse.
        a = IntMatrix([[2, 0], [0, 3]])
        one = identity(2)
        monkeypatch.setattr(homology, "_eliminate", lambda m: (one, one, one))
        with pytest.raises(ArithmeticError, match="non-solution"):
            solve_mod(a, (1, 1), 4)

    def test_against_brute_force_oracle(self):
        rng = random.Random(1729)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(0, 4)
            q = rng.randint(1, 6)
            a = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            b = [rng.randint(-9, 9) for _ in range(rows)]
            expected = brute_image_contains(a, b, q)
            x = solve_mod(a, b, q)
            assert (x is not None) == expected
            if x is not None:
                assert all((lhs - rhs) % q == 0 for lhs, rhs in zip(a.apply(x), b))


class TestKernelGeneratorsMod:
    def test_loop_boundary_spans_everything(self):
        gens = kernel_generators_mod(boundary_matrix(loop_graph()), 3)
        assert span_mod(gens, 1, 3) == {(0,), (1,), (2,)}

    def test_single_edge_kernel_trivial(self):
        gens = kernel_generators_mod(boundary_matrix(path_graph(1)), 2)
        assert span_mod(gens, 1, 2) == {(0,)}

    def test_banana_kernel_is_diagonal(self):
        gens = kernel_generators_mod(boundary_matrix(banana()), 2)
        assert span_mod(gens, 2, 2) == {(0, 0), (1, 1)}

    def test_against_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(80):
            rows = rng.randint(1, 3)
            cols = rng.randint(0, 3)
            q = rng.randint(1, 5)
            a = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            gens = kernel_generators_mod(a, q)
            assert span_mod(gens, cols, q) == brute_kernel(a, q)


class TestSubgroupContainedMod:
    def test_banana_kernel_inside_coboundary_image(self):
        g = banana()
        gens = kernel_generators_mod(boundary_matrix(g), 2)
        assert subgroup_contained_mod(gens, coboundary_matrix(g), 2)

    def test_loop_kernel_not_inside_zero_image(self):
        g = loop_graph()
        for r in (2, 3, 5):
            gens = kernel_generators_mod(boundary_matrix(g), r)
            assert not subgroup_contained_mod(gens, coboundary_matrix(g), r)

    def test_empty_generators_vacuous(self):
        assert subgroup_contained_mod([], zeros(2, 2), 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subgroup_contained_mod([(1, 2, 3)], zeros(2, 2), 5)
