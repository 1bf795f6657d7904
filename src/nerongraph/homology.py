"""Exact integer linear algebra for graph chain complexes.

The boundary matrix of an oriented graph, the intersection matrix
M = -(boundary o coboundary), the grounded Kirchhoff matrix and the
thickness-weighted cycle pairing, which both present the component
group of the thickness subdivision without building it, the Smith
normal form over the integers, and linear systems modulo an arbitrary
(possibly composite) positive integer q: :func:`solve_mod` and
:func:`kernel_generators_mod`.  The graph matrices are filled straight
from the index tables that the graph builds once: the ``(tail index,
tip index)`` of every edge in ``MultiGraph.endpoints`` and the
thicknesses by edge index in ``MultiGraph.thicknesses``.  Their rows
and columns follow the vertex order, except in :func:`kirchhoff_matrix`:
it grounds the vertex of largest degree and lists the others by
ascending degree, a static fill-reducing order, so that its Smith
reduction depends on how the input lists the vertices only through ties.

Two loops compute the Smith form.  :func:`_smith_diagonal` computes the
diagonal alone: it clears each pivot's column by Euclid with quotients
rounded to the nearest integer (Havas and Majewski, 1997), which
changes a row below only at the nonzero columns of the pivot row, and
the pivot's row to balanced remainders modulo the pivot, and skips the
divisibility step; pairwise gcd and lcm order the diagonal at the end.
A dense square tail left without ±1 pivots is finished instead from
its determinant and the gcd g of it and four of its minors, by Bareiss
elimination and then one Smith reduction modulo g, g unfactored and
every entry below it (:func:`_tail_by_determinant`; Iliopoulos, 1989).
The invariant factors (and so the component group) need nothing more,
and :func:`smith_normal_form` memoises that diagonal and nothing else.
:func:`_eliminate` computes D with the unimodular transforms U and V
by the textbook loop: the smallest entry as pivot (:func:`_pivot`, not
the unit-first rule of :func:`_smith_diagonal`), floor quotients and
operations over whole rows, so that the tests can check the diagonal
against it as an oracle that shares no shortcut with it.  It runs
outside the memo, once per call, in the solvers modulo q alone, each of
which reads the diagonal off the same D as its U and V.

Everything is computed with Python's arbitrary-precision integers; no
floating point is used anywhere.  Smith reduction of integer Laplacians
overflows fixed-width integers even at modest sizes, so exactness is
non-negotiable here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, check_modulus
from .graph import MultiGraph

#: Largest dimension of the presentation of Phi that
#: :func:`~nerongraph.invariants.analyze` and
#: :func:`~nerongraph.component_group.phi_group` Smith-reduce.  Random
#: unit-thickness documents with E = 2V, whose presentation is the
#: (V - 1)-dimensional Kirchhoff matrix, took 0.33-0.38 s to analyze at
#: dimension 400 on a 2-core x86-64 host (0.54-0.66 s before their tail
#: was finished from its determinant), and their Smith diagonal alone
#: 0.40-0.45 s at 420 (0.62-0.74 s).  Thick edges make the entries, and
#: the time, grow further.
MAX_PRESENTATION_DIMENSION = 400


class IntMatrix:
    """An immutable matrix of arbitrary-precision integers.

    Matrices hash and compare by value, which lets expensive
    decompositions be memoised on the matrix itself.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None) -> None:
        data = tuple(tuple(self._check_int(x) for x in row) for row in rows)
        if data:
            widths = {len(row) for row in data}
            if len(widths) != 1:
                raise DimensionMismatch("rows of unequal length")
            width = widths.pop()
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.rows = len(data)
        self.cols = cols
        self._data = data

    @staticmethod
    def _check_int(x: int) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"matrix entries must be integers, got {x!r}")
        return x

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """A matrix over rows that are already tuples of ``cols`` ints."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = len(data), cols, data
        return m

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    def row_list(self) -> list[list[int]]:
        """Mutable copy of the entries."""
        return [list(row) for row in self._data]

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise DimensionMismatch(
                f"matrix has {self.cols} columns, vector has {len(vector)} entries"
            )
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self._data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._data]!r})"


def _pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest nonzero absolute value in the trailing submatrix, ties
    broken by row-major position."""
    best, best_abs = None, 0
    for i in range(t, len(d)):
        low = min(map(abs, filter(None, d[i][t:])), default=0)
        if low and (best is None or low < best_abs):
            best, best_abs = i, low
            if low == 1:
                break
    if best is None:
        return None
    row = d[best]
    return best, next(j for j in range(t, len(row)) if abs(row[j]) == best_abs)


def _unit_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """The first ±1 of the first row from t that holds one, found by a
    C-level scan, or else :func:`_pivot`.  Rows from t are zero before
    column t, so a whole-row scan finds only trailing entries."""
    for i in range(t, len(d)):
        row = d[i]
        if 1 in row:
            return i, row.index(1)
        if -1 in row:
            return i, row.index(-1)
    return _pivot(d, t)


def _tail_by_determinant(d: list[list[int]], t: int) -> list[int] | None:
    """The Smith diagonal of the square block T of d from (t, t), from
    its determinant, or None when T is singular.  d is not changed.

    Bareiss elimination with row swaps gives det T, and after its step
    k - 3 the trailing 2x2 block holds four (k - 1)-minors of T, up to
    sign.  Their gcd g with det T is a multiple of the (k - 1)-th
    determinantal divisor s_1...s_{k-1}, and it divides det T.  So each
    s_i with i < k divides g, and is gcd(s_i, g): the Smith diagonal of
    T modulo g (:func:`_smith_modulo`), with g whole and unfactored,
    gives s_1, ..., s_{k-1}, and s_k is |det T| over their product.
    With g = 1 that is 1, ..., 1, |det T|.  The entries modulo g stay
    small, unlike those of a reduction modulo det T.

    A T whose rows all sum to zero is singular, and is declined before
    Bareiss: the tails of a Laplacian, such as the intersection matrix
    that :func:`~nerongraph.component_group.phi_group` reduces, keep
    that property while each pivot divides the rest of its row.
    """
    m = [row[t:] for row in d[t:]]
    if not any(map(sum, m)):
        return None
    k = len(m)
    previous = 1
    for p in range(k - 2):
        if not m[p][p]:
            i = next((i for i in range(p + 1, k) if m[i][p]), None)
            if i is None:
                return None
            m[p], m[i] = m[i], m[p]  # a sign the minors do not need
        prow = m[p]
        pivot = prow[p]
        for row in m[p + 1:]:
            x = row[p]
            row[p + 1:] = [(pivot * y - x * z) // previous
                           for y, z in zip(row[p + 1:], prow[p + 1:])]
        previous = pivot
    (w, x), (y, z) = m[k - 2][k - 2:], m[k - 1][k - 2:]
    det = abs((w * z - x * y) // previous)
    if not det:
        return None
    g = gcd(det, w, x, y, z)
    factors = _smith_modulo([row[t:] for row in d[t:]], g)[:-1] if g > 1 else [1] * (k - 1)
    return factors + [det // prod(factors)]


def _smith_modulo(block: list[list[int]], n: int) -> list[int]:
    """gcd(s_i, n) for each factor s_i of the Smith diagonal of the
    square ``block``, in divisibility order, by row operations on its
    entries modulo n, so that n is never factored (Iliopoulos, 1989).

    Each step takes as pivot a the first unit modulo n, or else the
    first entry that is not 0 modulo n.  While its column holds an x
    that h = gcd(a, n) does not divide, a Bezout step on the two rows
    makes gcd(a, x) the pivot, whose gcd with n is a proper divisor of
    h.  Then every x of the column is a multiple of a modulo n, and its
    row loses that multiple.  If h divides the pivot's row too, the row
    and column leave and h is found; else the matrix is transposed,
    which keeps its Smith form, and the row is cleared as a column.
    Once every entry is 0 modulo n, each factor left is n.
    """
    m = [[x % n for x in row] for row in block]
    found = []
    while any(map(any, m)):
        units = ((r, c) for r, row in enumerate(m) for c, x in enumerate(row) if gcd(x, n) == 1)
        nonzero = ((r, c) for r, row in enumerate(m) for c, x in enumerate(row) if x)
        i, j = next(units, None) or next(nonzero)
        prow = m.pop(i)
        while True:
            a = prow[j]
            h = gcd(a, n)
            r = next((r for r, row in enumerate(m) if row[j] % h), None)
            if r is not None:  # s a + u x = b: a step of determinant 1
                x = m[r][j]
                b = gcd(a, x)
                s = pow(a // b, -1, x // b)
                u = (b - s * a) // x
                m[r], prow = ([(a // b * y - x // b * z) % n for y, z in zip(m[r], prow)],
                              [(s * z + u * y) % n for y, z in zip(m[r], prow)])
                continue
            inverse = pow(a // h, -1, n // h)
            for r, row in enumerate(m):
                if f := row[j] // h * inverse % n:
                    m[r] = [(y - f * z) % n for y, z in zip(row, prow)]
            if not any(y % h for y in prow):
                break
            m = [list(column) for column in zip(prow, *m)]
            prow, j = m.pop(j), 0
        for row in m:
            del row[j]
        found.append(h)
    return _divisibility_order(found) + [n] * (len(block) - len(found))


def _divisibility_order(found: list[int]) -> list[int]:
    """The Smith diagonal of the diagonal matrix with entries ``found``:
    pairwise gcd and lcm, which keep the exponents of every prime as a
    multiset, put them in divisibility order, units first and zeros last
    (gcd(0, y) is y), and that order is unique."""
    rest = [x for x in found if x != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            x, y = rest[i], rest[j]
            g = gcd(x, y)
            if g != x:
                rest[i], rest[j] = g, x // g * y
    return [1] * (len(found) - len(rest)) + rest


def _smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal of a, without the transforms.

    Step t takes as pivot the first ±1 of the first row that holds one,
    or else the smallest nonzero absolute value, and moves it to (t, t).
    Euclid clears column t: every row below is reduced by the quotient
    rounded to the nearest integer, in integers (a float quotient is
    wrong past 2**53), so that no remainder exceeds half the pivot, and
    the row with the smallest remainder becomes row t, until the pivot
    is alone in the column.  Each round lists the nonzero entries of
    row t right of the pivot, its support, once, and subtracts from a
    row below only there, so a sparse pivot row costs little whatever
    the width; the support is listed again after every swap, since the
    new row t has its own.  Row t is then reduced to balanced
    remainders modulo the pivot, which changes no other row; a
    remainder moves the column of the smallest one to column t, and the
    step goes on.  The entries so found are not yet in divisibility
    order; :func:`_divisibility_order` sorts them into the Smith
    diagonal.

    Euclid on a dense block without a ±1 grows its entries at every
    step.  So at a step that finds no ±1 pivot, the third or later in a
    row, a square trailing block of 9 x 9 to 64 x 64 with more than
    three quarters of its entries nonzero is finished by
    :func:`_tail_by_determinant` instead, at most once per reduction; if
    the block is singular, the loop goes on.
    The gates keep on Euclid the tails that are sparse, which Bareiss
    would fill in, or small, or whose steps without a ±1 come one or two
    at a time, as on ladders; and a larger block waits until it is
    64 x 64, since Bareiss on it can cost more than Euclid where the
    entries grow slowly.
    """
    rows, cols = a.rows, a.cols
    d = a.row_list()
    found = []
    misses, tried = 0, False  # steps in a row without a ±1; route run
    for t in range(min(rows, cols)):
        p = _unit_pivot(d, t)
        if p is None:
            break
        i, j = p
        misses = 0 if d[i][j] in (1, -1) else misses + 1
        n = rows - t
        # Rows from t are zero before column t: their nonzero entries
        # are those of the n x n block.
        if (misses >= 3 and not tried and rows == cols and 9 <= n <= 64
                and 4 * sum(rows - row.count(0) for row in d[t:]) > 3 * n * n):
            tried = True
            tail = _tail_by_determinant(d, t)
            if tail is not None:
                found += tail
                break
        d[t], d[i] = d[i], d[t]
        while True:
            if j != t:
                for row in d[t:]:
                    row[t], row[j] = row[j], row[t]
            while True:
                prow = d[t]
                pivot = prow[t]
                size = abs(pivot)
                support = [(k, y) for k, y in enumerate(prow[t + 1:], t + 1) if y]
                low, k = size, None
                for i in range(t + 1, rows):
                    row = d[i]
                    x = row[t]
                    if x:
                        f, x = divmod(x, pivot)
                        if 2 * abs(x) > size:
                            f, x = f + 1, x - pivot
                        row[t] = x
                        for c, y in support:
                            row[c] -= f * y
                        if x and abs(x) < low:
                            low, k = abs(x), i
                if k is None:
                    break
                d[t], d[k] = d[k], d[t]
            if pivot in (1, -1):
                break  # row t is zero modulo a unit
            half = size // 2
            prow[t + 1:] = [(x + half) % size - half for x in prow[t + 1:]]
            low, j = size, None
            for k in range(t + 1, cols):
                if prow[k] and abs(prow[k]) < low:
                    low, j = abs(prow[k]), k
            if j is None:
                break
        found.append(abs(pivot))

    return tuple(_divisibility_order(found)) + (0,) * (min(rows, cols) - len(found))


def _eliminate(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Unimodular U and V and the Smith form D of a, with U A V = D.

    The textbook loop, kept plain as the oracle of
    :func:`_smith_diagonal`, whose pivot rule it does not share.  At
    step t the smallest nonzero entry of the trailing block
    (:func:`_pivot`) moves to (t, t); row operations with floor
    quotients clear column t below it and column operations row t to
    its right.  While that leaves a remainder the step starts over, and
    once both are clear an entry that the pivot does not divide has its
    row added to row t.  Rows and columns before t are already zero from
    column and row t on.  V is kept transposed, so that its column
    operations are row operations.  The signs are fixed at the end.
    """
    rows, cols = a.rows, a.cols
    d = a.row_list()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for t in range(min(rows, cols)):
        while (p := _pivot(d, t)) is not None:
            i, j = p
            d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
            for row in d:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
            pivot = d[t][t]
            for i in range(t + 1, rows):
                if f := d[i][t] // pivot:
                    d[i] = [x - f * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, cols):
                if f := d[t][j] // pivot:
                    for row in d:
                        row[j] -= f * row[t]
                    vt[j] = [x - f * y for x, y in zip(vt[j], vt[t])]
            if any(row[t] for row in d[t + 1:]) or any(d[t][t + 1:]):
                continue
            # Row and column are clear; enforce divisibility of the rest.
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in d[i])), None
            )
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if p is None:
            break

    for t in range(min(rows, cols)):
        if d[t][t] < 0:
            d[t] = [-y for y in d[t]]
            u[t] = [-y for y in u[t]]
    return (
        IntMatrix._trusted(tuple(map(tuple, u)), rows),
        IntMatrix._trusted(tuple(map(tuple, d)), cols),
        IntMatrix._trusted(tuple(zip(*vt)), cols),
    )


class SmithForm(NamedTuple):
    """The Smith diagonal of a matrix: nonnegative entries, each dividing
    the next, zeros last, one for each of min(rows, cols)."""

    diagonal: tuple[int, ...]


@lru_cache(maxsize=None)
def smith_normal_form(a: IntMatrix) -> SmithForm:
    """The Smith normal form of a, by the diagonal-only loop
    :func:`_smith_diagonal`; it is unique.  The result is cached on the
    (hashable) input matrix."""
    return SmithForm(_smith_diagonal(a))


# -- graph matrices --------------------------------------------------------


def boundary_matrix(g: MultiGraph) -> IntMatrix:
    """The boundary map from 1-chains to 0-chains.

    Rows follow the vertex order, columns the edge order; the column of
    an edge is +1 at its tip and -1 at its tail, and the all-zero column
    for a loop.
    """
    rows = [[0] * g.n_edges for _ in range(g.n_vertices)]
    for j, (tail, tip) in enumerate(g.endpoints):
        if tail != tip:
            rows[tip][j] = 1
            rows[tail][j] = -1
    return IntMatrix._trusted(tuple(map(tuple, rows)), g.n_edges)


def intersection_matrix(g: MultiGraph) -> IntMatrix:
    """M = -(boundary o coboundary).

    The diagonal entry at a vertex is minus the number of non-loop edges
    at it, the off-diagonal entry at (v, w) is the number of edges
    joining v and w; M is the negative of the loopless graph Laplacian,
    and multidegrees of line bundles trivial on the generic fibre form
    its image lattice.
    """
    m = [[0] * g.n_vertices for _ in range(g.n_vertices)]
    for u, v in g.endpoints:
        if u != v:
            m[u][u] -= 1
            m[v][v] -= 1
            m[u][v] += 1
            m[v][u] += 1
    return IntMatrix._trusted(tuple(map(tuple, m)), g.n_vertices)


def kirchhoff_matrix(g: MultiGraph) -> IntMatrix:
    """The grounded Kirchhoff matrix, a presentation of the component
    group of the thickness subdivision, with the sign of
    :func:`intersection_matrix`.

    A vertex's degree here is its number of non-loop edge ends, thick
    edges included.  The vertex of largest degree is grounded, and the
    rows and columns are the other vertices by ascending degree (ties go
    to the lower vertex index both times), then one generator for each
    edge of thickness eta > 1, in edge order.  A unit non-loop edge adds
    its entries of the intersection matrix outside the ground's row and
    column.  A thick edge's generator has diagonal +eta, and +1 at its
    tail and -1 at its tip in its row and its column (skipped at the
    ground); a thick loop gives an isolated +eta, and a unit loop adds
    nothing.

    It is the Ohm and Kirchhoff block presentation of the component
    group, one generator per edge with diagonal thickness next to the
    grounded vertices, with the generator of every unit edge eliminated
    on its pivot 1.  Over the rationals, eliminating the thick
    generators as well leaves minus the Laplacian with conductance
    1/eta on each edge, the sign of M; with -eta the conductances of the
    thick edges would come out negative.  Its dimension
    ``n_vertices - 1 + #thick edges`` does not grow with the
    thicknesses.  The group depends neither on the ground nor on a
    simultaneous permutation of rows and columns; the degree order is
    the classic static fill-reducing one (Markowitz, 1957; Tinney and
    Walker, 1967), and the unit-first pivots of :func:`_smith_diagonal`
    run faster under it than in input order.  Loops add no degree, so
    graphs that differ only by loops share a matrix, and a memo entry.
    """
    thickness = g.thicknesses
    thick = [j for j, eta in enumerate(thickness) if eta > 1]
    n = g.n_vertices - 1 + len(thick)
    degree = [0] * g.n_vertices
    for u, v in g.endpoints:
        if u != v:
            degree[u] += 1
            degree[v] += 1
    # sorted is stable and max returns the first maximum: ties go to the
    # lower index.
    order = sorted(range(g.n_vertices), key=degree.__getitem__)
    ground = max(range(g.n_vertices), key=degree.__getitem__)
    order.remove(ground)
    # slot[v] is vertex v's row and column; the ground's is the last,
    # row and column n, dropped at the end.
    slot = [n] * g.n_vertices
    for i, v in enumerate(order):
        slot[v] = i
    m = [[0] * (n + 1) for _ in range(n + 1)]
    generator = dict(zip(thick, range(g.n_vertices - 1, n)))
    for j, (u, v) in enumerate(g.endpoints):
        u, v = slot[u], slot[v]
        x = generator.get(j)
        if x is not None:
            m[x][x] = thickness[j]
            if u != v:
                m[x][u] = m[u][x] = 1
                m[x][v] = m[v][x] = -1
        elif u != v:
            m[u][u] -= 1
            m[v][v] -= 1
            m[u][v] += 1
            m[v][u] += 1
    return IntMatrix._trusted(tuple(tuple(row[:n]) for row in m[:n]), n)


def cycle_pairing_matrix(
    g: MultiGraph, cycles: Sequence[Mapping[int, int]]
) -> IntMatrix:
    """The thickness-weighted Gram matrix
    ``G_ij = sum_e thickness(e) * cycles[i][e] * cycles[j][e]`` of sparse
    signed edge vectors ``{edge index: +1 or -1}``.  On a
    :func:`~nerongraph.graph.fundamental_cycle_basis` it presents the
    component group of the thickness subdivision with b1 generators."""
    through: dict[int, list[tuple[int, int]]] = {}
    for i, cycle in enumerate(cycles):
        for ei, sign in cycle.items():
            through.setdefault(ei, []).append((i, sign))
    gram = [[0] * len(cycles) for _ in cycles]
    thickness = g.thicknesses
    for ei, members in through.items():
        eta = thickness[ei]
        for i, si in members:
            row = gram[i]
            for j, sj in members:
                row[j] += eta * si * sj
    return IntMatrix._trusted(tuple(map(tuple, gram)), len(cycles))


# -- systems modulo q -------------------------------------------------------


def solve_mod(a: IntMatrix, b: Sequence[int], q: int) -> tuple[int, ...] | None:
    """A solution x of a x = b (mod q), or None when there is none.

    With U a V = D from :func:`_eliminate`, the system turns into
    independent congruences d_i y_i = (U b)_i (mod q), and x = V y;
    kernels and images modulo a composite q come out of the integer
    Smith form directly, with no per-prime decomposition.  A solution is
    checked against the system before it is returned;
    :class:`ArithmeticError` means the elimination was wrong.
    """
    check_modulus(q, "q")
    if len(b) != a.rows:
        raise DimensionMismatch(
            f"matrix has {a.rows} rows, right-hand side has {len(b)} entries"
        )
    u, d, v = _eliminate(a)
    c = u.apply(b)
    y = [0] * a.cols
    for i in range(a.rows):
        d_i = d[i, i] if i < a.cols else 0
        rhs = c[i] % q
        g = gcd(d_i, q)  # gcd(0, q) == q
        if rhs % g != 0:
            return None
        if d_i != 0:
            qg = q // g
            if qg > 1:
                y[i] = (rhs // g) * pow(d_i // g, -1, qg) % qg
    x = tuple(value % q for value in v.apply(y))
    if any((lhs - rhs) % q != 0 for lhs, rhs in zip(a.apply(x), b)):
        raise ArithmeticError("solve_mod: the Smith form gave a non-solution")
    return x


def kernel_generators_mod(a: IntMatrix, q: int) -> list[tuple[int, ...]]:
    """Generators of {x : a x = 0 (mod q)} as a Z/qZ-module.

    With U a V = D from :func:`_eliminate`, the kernel is V applied to
    the solutions of d_j y_j = 0 (mod q), i.e. spanned by
    (q / gcd(d_j, q)) times the columns of V.  Columns whose multiplier
    vanishes modulo q are dropped, so the generators are nonzero and
    independent whenever the diagonal entries are 0 or 1 (the case of
    graph boundary maps).
    """
    check_modulus(q, "q")
    _, d, v = _eliminate(a)
    gens = []
    for j in range(a.cols):
        multiplier = q // gcd(d[j, j] if j < a.rows else 0, q)
        if multiplier % q:
            gens.append(tuple((multiplier * x) % q for x in v.column(j)))
    return gens
