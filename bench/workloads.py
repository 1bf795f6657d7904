"""Seeded input documents for the benchmark workloads, and the oracles
that check the reports for them.

Nothing here imports ``nerongraph``: the program only ever sees the JSON
documents built below, and the oracles recompute what they check from
the document alone.
"""

from __future__ import annotations

import random
from math import gcd, prod

# Sizes of the analyze-random documents, as (vertex count, how many of the
# 100 documents in one batch).  Edges are always 2V, so b1 = V + 1.
RANDOM_SIZES = ((16, 30), (32, 30), (48, 25), (64, 15))
RANDOM_MODULI = (2, 3, 4, 6, 12)
THICKNESSES = (1, 2, 4, 8, 16, 32)
FIXTURE_ETAS = (1, 2, 4, 8)
THICK_RANDOM_COUNT = 76
VERIFY_ARGV = ("verify-lemma", "--max-edges", "6", "--max-q", "6")
# What VERIFY_ARGV must print: graphs per edge count
# (OEIS A007719), then the totals.
VERIFY_COUNTS = (1, 2, 4, 11, 30, 95, 328)
VERIFY_TOTAL_GRAPHS = 471
VERIFY_TRIPLES = 2826

# The six worked-example graphs of the paper, with their circuit
# invariant c and spanning-tree count kappa at unit thickness.
FIXTURES = {
    "loop": (["v0"], [("v0", "v0")], 1, 1),
    "banana": (["v0", "v1"], [("v0", "v1"), ("v0", "v1")], 2, 2),
    "square": (
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")],
        4, 4,
    ),
    "theta-fan": (
        ["n", "a", "b", "c", "s"],
        [("n", "a"), ("n", "b"), ("n", "c"), ("a", "s"), ("b", "s"), ("c", "s")],
        2, 12,
    ),
    "two-squares-bridge": (
        ["n1", "w1", "e1", "s1", "n2", "w2", "e2", "s2"],
        [("n1", "w1"), ("n1", "e1"), ("w1", "s1"), ("e1", "s1"),
         ("n2", "w2"), ("n2", "e2"), ("w2", "s2"), ("e2", "s2"), ("e1", "w2")],
        4, 16,
    ),
    "grid": (
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "c"), ("a", "d"), ("a", "b"), ("b", "e"), ("b", "f"),
         ("c", "g"), ("d", "g"), ("e", "h"), ("f", "h"), ("g", "h")],
        2, 64,
    ),
}


def _multidegree(rng: random.Random, vertices: list[str], r: int) -> dict[str, int]:
    """Random degrees whose total is a multiple of r."""
    degrees = {v: rng.randint(-3, 3) for v in vertices}
    degrees[vertices[-1]] -= sum(degrees.values()) % r
    return degrees


def _document(name, vertices, pairs, genus, thickness, r, multidegree) -> dict:
    return {
        "name": name,
        "r": r,
        "vertices": [{"id": v, "genus": genus[v]} for v in vertices],
        "edges": [
            {"id": f"e{i}", "tail": a, "tip": b, "thickness": eta}
            for i, ((a, b), eta) in enumerate(zip(pairs, thickness))
        ],
        "multidegree": multidegree,
    }


def random_document(rng: random.Random, name: str, n: int, m: int,
                    thicknesses=(1,), start: int = 0) -> dict:
    """A random spanning tree on n vertices plus m - n + 1 extra edges,
    loops and parallels allowed.  Thicknesses run through ``thicknesses``
    cyclically from index ``start`` and are then shuffled over the edges,
    so the size of the subdivided regular model does not depend on the
    seed."""
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    for _ in range(m - n + 1):
        pairs.append((vertices[rng.randrange(n)], vertices[rng.randrange(n)]))
    rng.shuffle(pairs)
    genus = {v: rng.randint(0, 2) for v in vertices}
    thickness = [thicknesses[(start + i) % len(thicknesses)] for i in range(m)]
    rng.shuffle(thickness)
    r = rng.choice(RANDOM_MODULI)
    return _document(name, vertices, pairs, genus, thickness, r,
                     _multidegree(rng, vertices, r))


def fixture_document(name: str, eta: int) -> dict:
    """A worked-example graph at uniform thickness eta, with r = 4 and
    the stable genera (genus 1 where fewer than three branches meet)."""
    vertices, pairs, _, _ = FIXTURES[name]
    ends = {v: 0 for v in vertices}
    for a, b in pairs:
        ends[a] += 1
        ends[b] += 1
    genus = {v: 0 if k >= 3 else 1 for v, k in ends.items()}
    multidegree = {v: (i % 3) - 1 for i, v in enumerate(vertices)}
    multidegree[vertices[-1]] -= sum(multidegree.values()) % 4
    return _document(f"{name}@{eta}", vertices, pairs, genus,
                     [eta] * len(pairs), 4, multidegree)


def analyze_random(rng: random.Random) -> list[dict]:
    """One batch of 100 unit-thickness documents, sizes in random order."""
    sizes = [n for n, count in RANDOM_SIZES for _ in range(count)]
    rng.shuffle(sizes)
    return [random_document(rng, f"random-{i}", n, 2 * n)
            for i, n in enumerate(sizes)]


def analyze_thick(rng: random.Random) -> list[dict]:
    """The six fixtures at each uniform thickness, then 76 small random
    graphs with mixed thicknesses; 100 documents in random order.  The
    random graphs take every shape (V, E) with 2 <= V <= 6 and
    V <= E <= 2V three times over, plus one more (2, 2); the i-th starts
    its thickness cycle at THICKNESSES[i % 6], so every thickness is
    about as common and each pass costs about the same."""
    docs = [fixture_document(name, eta) for name in FIXTURES for eta in FIXTURE_ETAS]
    shapes = [(n, m) for n in range(2, 7) for m in range(n, 2 * n + 1)]
    for i, (n, m) in enumerate((shapes * 4)[:THICK_RANDOM_COUNT]):
        docs.append(random_document(rng, f"thick-{i}", n, m, THICKNESSES,
                                    start=i % len(THICKNESSES)))
    rng.shuffle(docs)
    return docs


def reference_documents(workload: str) -> list[dict]:
    """A small seed-independent set whose concatenated reports are pinned
    by digest; it doubles as the warm-up set, so warm-up never touches
    the timed documents."""
    rng = random.Random(f"{workload}/reference")
    if workload == "analyze-random":
        return [random_document(rng, f"reference-{i}", 20, 40) for i in range(8)]
    return [random_document(rng, f"reference-{i}", n, n + 1, THICKNESSES)
            for i, n in enumerate((2, 2, 3, 3, 4, 4, 5, 5))]


GENERATORS = {"analyze-random": analyze_random, "analyze-thick": analyze_thick}


def timed_documents(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# -- oracles -----------------------------------------------------------------


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i, factor = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def weighted_tree_count(doc: dict) -> int:
    """Spanning trees of the thickness subdivision, computed on the given
    graph: prod(eta_e) * det of the reduced Laplacian with edge weights
    1/eta_e.  Scaling the weights by L = lcm(eta) keeps it integral."""
    index = {v["id"]: i for i, v in enumerate(doc["vertices"])}
    etas = [e["thickness"] for e in doc["edges"]]
    scale = 1
    for eta in etas:
        scale = scale * eta // gcd(scale, eta)
    n = len(index)
    lap = [[0] * n for _ in range(n)]
    for e, eta in zip(doc["edges"], etas):
        a, b = index[e["tail"]], index[e["tip"]]
        if a != b:
            w = scale // eta
            lap[a][a] += w
            lap[b][b] += w
            lap[a][b] -= w
            lap[b][a] -= w
    det = _bareiss_det([row[1:] for row in lap[1:]])
    total = prod(etas) * det
    if total % scale ** (n - 1):
        raise ArithmeticError("weighted tree count is not an integer")
    return total // scale ** (n - 1)


def expected_report(doc: dict) -> dict:
    """The report fields an oracle fixes for this document."""
    expected = {"phi_order": weighted_tree_count(doc)}
    name, _, eta = doc["name"].partition("@")
    if name in FIXTURES:
        eta = int(eta)
        vertices, pairs, c, kappa = FIXTURES[name]
        b1 = len(pairs) - len(vertices) + 1
        expected.update(c=eta * c, t=eta, phi_order=eta ** b1 * kappa)
    return expected


def check_report(doc: dict, report: dict) -> list[str]:
    """Mismatches between a machine report and the oracles."""
    problems = []
    for key, want in expected_report(doc).items():
        got = report.get(key)
        if got != want:
            problems.append(f"{doc['name']}: {key} = {got!r}, oracle says {want!r}")
    return problems


def check_verify_output(text: str) -> list[str]:
    expected = [f"edges={m}: {k} graph{'s' if k != 1 else ''}"
                for m, k in enumerate(VERIFY_COUNTS)]
    expected.append(f"checked {VERIFY_TOTAL_GRAPHS} graphs x q <= 6: "
                    f"{VERIFY_TRIPLES} criterion triples, 0 counterexamples")
    got = text.splitlines()
    if got != expected:
        return [f"verify-lemma printed {got!r}, expected {expected!r}"]
    return []
