"""Exact pairing-sum reference, vectorised over all pairings with numpy.

This is the benchmark's own check on the program's answers.  It shares
no code with ``wte``: it derives each pairing's trace product straight
from the Wick index identifications (the same derivation the brute-force
oracle uses) instead of the engine's signed-permutation algebra, and it
evaluates all pairings at once with integer array arithmetic.

For pairing p every letter k contributes its slot matrix D_k, whose first
index is the row or column variable of k's block and whose second index
is the row or column variable of the block of the next letter of k's
factor.  Each variable is shared by exactly two matrix ends, so the
variables close into cycles and the index sum is a product of traces.
A walk state ``2k`` runs through D_k forwards (in at its first index, out
at its second) and ``2k + 1`` runs through its transpose; every cycle of
the walk has a reversed twin, and exactly one of the two starts at an
even state (its smallest state), which picks one trace per cycle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CHUNK = 8192  # pairings evaluated per batch; bounds the working memory


@dataclass(frozen=True)
class Problem:
    """A bound trace word in plain data.

    ``eps[k]`` is -1 for a transposed letter and +1 for a plain one;
    ``gram`` maps an unordered family pair to its inner product (a
    missing pair of distinct families is 0, a missing diagonal is 1);
    ``mats[k]`` is slot k's integer matrix.
    """

    lengths: tuple[int, ...]
    eps: tuple[int, ...]
    labels: tuple[str, ...]
    n_dim: int
    m_dim: int
    mats: tuple[np.ndarray, ...]
    q: Fraction = Fraction(1)
    gram: tuple[tuple[str, str, Fraction], ...] = ()
    wigner: frozenset = frozenset()
    cumulant: bool = False

    @property
    def m(self) -> int:
        return sum(self.lengths)


def pairings(m: int) -> np.ndarray:
    """All perfect matchings of 0..m-1 as a (P, m) partner table."""
    out: list[list[int]] = []
    partner = [0] * m

    def rec(free: list[int]) -> None:
        if not free:
            out.append(partner.copy())
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            partner[a], partner[b] = b, a
            rec(free[1:i] + free[i + 1 :])

    rec(list(range(m)))
    return np.array(out, dtype=np.int64).reshape(len(out), m)


def _next_letter(lengths: tuple[int, ...]) -> np.ndarray:
    nxt = []
    start = 0
    for length in lengths:
        nxt.extend(start + (i + 1) % length for i in range(length))
        start += length
    return np.array(nxt, dtype=np.int64)


def transitive(partner: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    """Mask of pairings that connect all factors."""
    nxt = _next_letter(lengths)
    prev = np.argsort(nxt)
    lab = np.broadcast_to(np.arange(partner.shape[1]), partner.shape).copy()
    while True:
        new = np.minimum.reduce(
            [lab, lab[:, nxt], lab[:, prev], np.take_along_axis(lab, partner, axis=1)]
        )
        if np.array_equal(new, lab):
            return lab.max(axis=1) == 0
        lab = new


def crossings(partner: np.ndarray) -> np.ndarray:
    """Crossing number of each pairing."""
    m = partner.shape[1]
    count = np.zeros(partner.shape[0], dtype=np.int64)
    for i in range(m):
        pi = partner[:, i]
        for k in range(i + 1, m):
            pk = partner[:, k]
            count += (k < pi) & (pi < pk)
    return count


def trace_products(partner: np.ndarray, prob: Problem, eps: tuple[int, ...]) -> np.ndarray:
    """Per pairing, the Wick index sum (a product of traces) as int64."""
    m = prob.m
    n = max(prob.n_dim, prob.m_dim)
    amax = max(int(np.abs(a).max()) for a in prob.mats)
    if (amax * n) ** m >= 2**63:
        raise OverflowError("trace products could overflow int64 for this problem")
    nxt = _next_letter(prob.lengths)
    eps_arr = np.array(eps, dtype=np.int64)

    # Matrix of each walk state, zero-padded to n x n; padding adds only
    # zero terms because a padded index always meets a zero entry.
    state_mats = np.zeros((2 * m, n, n), dtype=np.int64)
    for k, a in enumerate(prob.mats):
        state_mats[2 * k, : a.shape[0], : a.shape[1]] = a
        state_mats[2 * k + 1, : a.shape[1], : a.shape[0]] = a.T

    rows = np.arange(partner.shape[0])[:, None]
    block = np.minimum(np.arange(m), partner)
    # Index variable 2*block + (0 row, 1 column) at each matrix end 2k + pos.
    first = 2 * block + (eps_arr != -1)
    second = 2 * block[:, nxt] + (eps_arr[nxt] != 1)
    ends = np.empty((partner.shape[0], 2 * m), dtype=np.int64)
    ends[:, 0::2] = first
    ends[:, 1::2] = second
    order = np.argsort(ends, axis=1, kind="stable")
    other = np.empty_like(order)
    other[rows, order[:, 0::2]] = order[:, 1::2]
    other[rows, order[:, 1::2]] = order[:, 0::2]
    succ = other[:, np.arange(2 * m) ^ 1]

    lab = np.broadcast_to(np.arange(2 * m), succ.shape).copy()
    jump = succ.copy()
    for _ in range(math.ceil(math.log2(2 * m)) + 1):
        lab = np.minimum(lab, np.take_along_axis(lab, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)

    starts = (lab == np.arange(2 * m)) & (np.arange(2 * m) % 2 == 0)
    pidx, sidx = np.nonzero(starts)
    acc = state_mats[sidx].copy()
    cur = succ[pidx, sidx]
    active = np.nonzero(cur != sidx)[0]
    while active.size:
        acc[active] = acc[active] @ state_mats[cur[active]]
        cur[active] = succ[pidx[active], cur[active]]
        active = active[cur[active] != sidx[active]]
    traces = np.trace(acc, axis1=1, axis2=2)
    first_of = np.searchsorted(pidx, np.arange(partner.shape[0]))
    return np.multiply.reduceat(traces, first_of)


def _gram_value(prob: Problem, a: str, b: str) -> Fraction:
    for x, y, g in prob.gram:
        if {x, y} == {a, b}:
            return Fraction(g)
    return Fraction(1 if a == b else 0)


def evaluate(prob: Problem) -> tuple[Fraction, int]:
    """Exact normalized value of the word and the number of terms kept.

    The value is N^(-m/2 - r) times the weighted pairing sum; the term
    count is the kept pairings times 2^w for w Wigner letters.
    """
    m, r = prob.m, len(prob.lengths)
    if m % 2:
        return Fraction(0), 0
    wig = [k for k in range(m) if prob.labels[k] in prob.wigner]
    families = sorted(set(prob.labels))
    pair_class = {
        (a, b): i for i, (a, b) in enumerate(itertools.combinations_with_replacement(families, 2))
    }
    label_idx = np.array([families.index(lab) for lab in prob.labels])
    class_of = np.zeros((len(families), len(families)), dtype=np.int64)
    for (a, b), i in pair_class.items():
        class_of[families.index(a), families.index(b)] = class_of[
            families.index(b), families.index(a)
        ] = i

    table = pairings(m)
    sums: dict[tuple[int, ...], int] = {}
    kept = 0
    for lo in range(0, table.shape[0], CHUNK):
        partner = table[lo : lo + CHUNK]
        if prob.cumulant:
            partner = partner[transitive(partner, prob.lengths)]
        kept += partner.shape[0]
        if not partner.shape[0]:
            continue
        values = None
        for signs in itertools.product((1, -1), repeat=len(wig)):
            eps = list(prob.eps)
            for k, s in zip(wig, signs):
                eps[k] = s
            v = trace_products(partner, prob, tuple(eps)).astype(object)
            values = v if values is None else values + v
        # Group pairings by weight: crossing number and Gram classes of the blocks.
        lower = np.arange(m) < partner
        cls = class_of[label_idx[None, :], label_idx[partner]]
        counts = [np.count_nonzero(lower & (cls == i), axis=1) for i in pair_class.values()]
        keys = np.stack([crossings(partner)] + counts, axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        for g, key in enumerate(map(tuple, uniq.tolist())):
            sums[key] = sums.get(key, 0) + sum(values[inverse.ravel() == g])

    total = Fraction(0)
    grams = [_gram_value(prob, a, b) for a, b in pair_class]
    for key, s in sums.items():
        weight = Fraction(prob.q) ** key[0]
        for g, c in zip(grams, key[1:]):
            weight *= g**c
        total += weight * s
    share = Fraction(1, 2 ** len(wig))
    return total * share / Fraction(prob.n_dim ** (m // 2 + r)), kept * 2 ** len(wig)
