"""Signed cycles written as rows of the kernel's cycle walk, and read back,
for the tests of the batched trace stage ``wte.engine._trace_walk``.

A walk row lists positions: +k is position 2(k-1) and -k is 2(k-1)+1,
and a row is padded with 2m after its cycle closes, m the slot count.
"""

import numpy as np

from wte.engine import _letters, _trace_walk


def walk_rows(cycles, m):
    """The signed cycles over slots 1..m as walk rows."""
    walk = np.full((len(cycles), max(map(len, cycles), default=1)), 2 * m, dtype=np.int64)
    for row, cyc in zip(walk, cycles):
        row[: len(cyc)] = [2 * (abs(k) - 1) + (k < 0) for k in cyc]
    return walk


def walk_cycles(walk, m):
    """The walk rows over slots 1..m as tuples of signed slots."""
    return _letters(walk, [(x // 2 + 1) * (-1 if x % 2 else 1) for x in range(2 * m)])


def trace_rows(cycles, mats, exact=False):
    """``_trace_walk`` of the signed cycles: the trace of each."""
    return _trace_walk(walk_rows(cycles, len(mats)), mats, exact)
