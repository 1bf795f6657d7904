"""A fixed calibration kernel that gauges how fast the host runs Python
at the moment, so that timed calls can be scaled to one reference speed.

The benchmark host is a shared VM whose speed changes by up to about 2x,
in spells from under a second to minutes, and CPU time slows as much as
wall time.  A spell that covers a whole run moves its medians far more
than any bound a benchmark could keep.  So a pass runs this kernel in a
block after every timed call (and once before the first), and each call's
time is multiplied by ``REFERENCE_REP_S`` over the median repetition time
of the blocks on either side of it.

The kernel is the benchmark's own code and does not call the program, so
a faster or slower program shows in full; only the host's speed cancels.
Its mix is the program's: big-integer elimination, as in the Smith
reduction, and small tuples in sets and dicts, as in the graph layers.  It runs with the garbage
collector off, so it costs the same whatever the program left behind.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# One kernel repetition on the 2-core VM (Xeon, 2.1 GHz, Python 3.11) at
# its median speed.  Scaled times are the wall times at that speed.
REFERENCE_REP_S = 400e-6
# A block after a call lasts this share of the call, and at least
# MIN_BLOCK_S; the block before the first call lasts FIRST_BLOCK_S.
BLOCK_SHARE = 0.25
MIN_BLOCK_S = 0.003
FIRST_BLOCK_S = 0.5

_rng = random.Random(20260603)
_SIZE = 12
_MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(_SIZE)) for _ in range(_SIZE))
_ADJACENCY = {v: sorted({_rng.randrange(120) for _ in range(4)} - {v}) for v in range(120)}


def _bareiss(rows: tuple[tuple[int, ...], ...]) -> int:
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _edge_weights() -> int:
    """Small-integer tuples, set and dict lookups, a keyed sort."""
    seen: set[tuple[int, int]] = set()
    weight: dict[tuple[int, int], int] = {}
    for v, ws in _ADJACENCY.items():
        for w in ws:
            edge = (v, w) if v < w else (w, v)
            if edge not in seen:
                seen.add(edge)
                weight[edge] = weight.get(edge, 0) + len(ws)
    return len(sorted(weight.items(), key=lambda item: (item[1], item[0])))


def kernel() -> tuple[int, int]:
    """One repetition: about 0.5 ms of mixed pure-Python work."""
    return _bareiss(_MATRIX), _edge_weights()


class Speedometer:
    """Blocks of kernel repetitions; ``blocks[i]`` holds the repetition
    times of the i-th block, in seconds."""

    def __init__(self) -> None:
        self.blocks: list[list[float]] = []

    def block(self, seconds: float) -> None:
        """Repeat the kernel for at least ``seconds``."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + seconds
            while True:
                start = time.perf_counter()
                kernel()
                now = time.perf_counter()
                times.append(now - start)
                if now >= end:
                    break
        finally:
            if enabled:
                gc.enable()
        self.blocks.append(times)

    def after_call(self, seconds: float) -> None:
        self.block(max(MIN_BLOCK_S, BLOCK_SHARE * seconds))

    def scale(self, i: int) -> float:
        """Reference speed over the speed around the i-th call, which ran
        between block i and block i + 1."""
        return REFERENCE_REP_S / statistics.median(self.blocks[i] + self.blocks[i + 1])

    def first_scale(self) -> float:
        """Reference speed over the speed of the first block, which ran
        right after set-up."""
        return REFERENCE_REP_S / statistics.median(self.blocks[0])
