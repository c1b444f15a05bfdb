"""Independent verification paths for the pairing-sum engine.

``wick_oracle`` evaluates trace-word moments straight from the entries:
for every pairing it sums the constrained index assignments (row and
column indices identified across each paired letter) of the product of
constant-matrix entries.  It shares only pairing enumeration and matrix
storage with the engine -- no double-cover permutations, no vertex
cycles, and its own crossing counter -- so agreement is meaningful.
The loops over pairings, their weights and the sign assignments of the
Wigner letters run in Python; the sum over index assignments runs in
numpy, in slices of ``_WICK_SLICE`` assignments taken in
``itertools.product`` order.  Per slice the assignments are decoded
into each block's row and column digits, each letter's slot entries
are gathered with one fancy index, and the m gathered columns are
multiplied in letter order.  Exact mode multiplies int64 arrays when
every slot holds ``int`` entries and ``_WICK_SLICE * amax^m < 2^62`` for
the largest |entry| amax: a product of m entries is at most amax^m in
absolute value and a slice sums at most ``_WICK_SLICE`` of them, so
none leaves int64 and the sums are the same Python ints.  Otherwise it
multiplies object arrays of the entries themselves (``int`` or
``Fraction``).  Float mode multiplies float64 arrays and sums each slice
as a left fold in assignment order (``np.add.accumulate``, carried
across slices), so its bits are those of the one-assignment-at-a-time
loop that ``tests/wick.py`` keeps as the specification.

``mc_oracle`` samples the Gaussian matrix families directly and averages
the trace-word product.  Sampling is counter-based (Philox keyed by the
seed) in a fixed draw order, and the reductions are exactly rounded, so
a given (seed, samples) pair reproduces the same estimate bit for bit no
matter how the evaluation is scheduled.  A background thread draws the
raw normals in chunks of at most 2 MiB; the calling thread correlates,
scales and multiplies each chunk through the word in sample blocks of
about 256 KiB an operand, which fit in L2.  Philox draws do not depend
on how they are chunked, and every step after the draw works on each
sample alone, so neither size changes any estimate: the serial loop
that ``tests/mc.py`` keeps gives the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .engine import MomentSpec, _enforce_budget
from .gluing import _rotation_arrays
from .perm import enumerate_pairings, pairing_count

Number = Union[int, float, Fraction]

_WICK_SLICE = 1 << 14  # index assignments per array slice of the Wick sum


def _local_crossings(blocks: Sequence[tuple[int, int]]) -> int:
    # Deliberately re-derived here so the oracle's weight path is
    # independent of the engine's.
    n = 0
    for x in range(len(blocks)):
        i, j = blocks[x]
        for y in range(x + 1, len(blocks)):
            k, l = blocks[y]
            if i < k < j < l or k < i < l < j:
                n += 1
    return n


def is_noncrossing(blocks: Sequence[tuple[int, int]]) -> bool:
    """Stack-based noncrossing test (independent of the crossing counter).

    >>> is_noncrossing([(1, 4), (2, 3)])
    True
    >>> is_noncrossing([(1, 3), (2, 4)])
    False
    """
    partner: dict[int, int] = {}
    for a, b in blocks:
        partner[a] = b
        partner[b] = a
    stack: list[int] = []
    for k in sorted(partner):
        if stack and stack[-1] == k:
            stack.pop()
        elif partner[k] > k:
            stack.append(partner[k])
        else:
            return False
    return not stack


def wick_oracle(spec: MomentSpec, *, exact: bool = True) -> Number:
    """Moment of the word by direct Wick expansion over matrix entries.

    For each pairing, row indices (in [m_dim]) and column indices (in
    [n_dim]) of the two paired letters are identified, and the product of
    the constant-matrix entries they select is summed over the free
    indices, one row/column pair per block.  Gram and q weights multiply
    the per-pairing sum; Wigner families average over transpose signs.
    The result carries the same n_dim^(-m/2 - r) prefactor as the engine.
    """
    shape = spec.shape
    m, r = shape.m, shape.r
    if m % 2:
        return Fraction(0) if exact else 0.0

    wigner_pos = tuple(
        k for k, lab in enumerate(shape.labels, start=1) if lab in spec.wigner
    )
    w = len(wigner_pos)
    work = pairing_count(m) * (spec.n_dim * spec.m_dim) ** (m // 2) * max(m, 1) * 2**w
    _enforce_budget(work, "wick expansion")

    if exact and not all(mat.is_exact for mat in spec.matrices):
        raise ValueError("exact mode requires integer or rational matrix entries")

    amaxes = [mat.amax for mat in spec.matrices]
    if exact and None not in amaxes and _WICK_SLICE * max(amaxes, default=0) ** m < 1 << 62:
        entries, dtype = [mat.as_int64() for mat in spec.matrices], np.int64
    else:
        entries = [mat.as_array(exact=exact) for mat in spec.matrices]
        dtype = object if exact else float

    gamma, _ = _rotation_arrays(shape.lengths)
    assignments = list(itertools.product((1, -1), repeat=w))
    share: Number = Fraction(1, 2**w) if exact else 0.5**w

    def eps_for(assign: tuple[int, ...]) -> list[int]:
        eps = [0] + list(shape.epsilon)
        for pos, sign in zip(wigner_pos, assign):
            eps[pos] = sign
        return eps

    labels = shape.labels
    q = spec.q if exact and isinstance(spec.q, (int, Fraction)) else (
        Fraction(spec.q) if exact else float(spec.q)
    )

    # An index assignment gives each block a row in [m_dim] and a column
    # in [n_dim]; in itertools.product order over the blocks, assignment
    # t has the digits of t in the mixed radix (m_dim, n_dim) * (m/2),
    # so digit 2b is block b's row and digit 2b + 1 its column.
    radix = (spec.m_dim, spec.n_dim) * (m // 2)
    count = math.prod(radix)
    total: Number = Fraction(0) if exact else 0.0

    # Float products and sums overflow to inf (and inf - inf to nan)
    # silently, as Python floats do in the scalar reference.
    with np.errstate(over="ignore", invalid="ignore"):
        for p in enumerate_pairings(m):
            blocks = p.blocks()
            weight: Number = q ** _local_crossings(blocks)
            for a, b in blocks:
                g = spec.gram.value(labels[a - 1], labels[b - 1])
                weight = weight * (g if exact else float(g))
            if weight == 0:
                continue
            block_of = [0] * (m + 1)
            for bi, (a, b) in enumerate(blocks):
                block_of[a] = block_of[b] = bi

            for assign in assignments:
                eps = eps_for(assign)
                # Per letter: its slot's entries and the digits that index
                # them: the row (2b) or the column (2b + 1) of the block b
                # that holds the letter, then of the block that holds the
                # next letter of its factor.
                plan = [
                    (
                        entries[k - 1],
                        2 * block_of[k] + (eps[k] != -1),
                        2 * block_of[gamma[k]] + (eps[gamma[k]] != 1),
                    )
                    for k in range(1, m + 1)
                ]
                acc: Number = 0 if exact else 0.0
                for start in range(0, count, _WICK_SLICE):
                    index = np.arange(start, min(count, start + _WICK_SLICE))
                    digits = np.unravel_index(index, radix) if m else ()
                    prod = np.ones(len(index), dtype=dtype)
                    for ent, first, second in plan:
                        prod *= ent[digits[first], digits[second]]
                    if exact:
                        part = prod.sum()
                        acc = acc + (int(part) if dtype is np.int64 else part)
                    else:
                        # A left fold in assignment order, carried across
                        # slices: the bits of the scalar loop's sum.
                        acc = float(np.add.accumulate(np.concatenate(([acc], prod)))[-1])
                total = total + weight * share * acc

    if exact:
        return Fraction(total) / Fraction(spec.n_dim ** (m // 2 + r))
    return float(total) * float(spec.n_dim) ** (-(m // 2) - r)


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate with its standard error and diagnostics."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    factor_means: tuple[float, ...]
    statistic: str

    def zscore(self, exact_value: float) -> float:
        if self.stderr == 0:
            return 0.0 if self.estimate == exact_value else math.inf
        return abs(self.estimate - exact_value) / self.stderr


_MC_CHUNK_BYTES = 2 << 20  # 2 MiB budget for the raw draw of one chunk; two are in flight
_MC_BLOCK_BYTES = 256 << 10  # about 256 KiB an operand per sample block of the products


def _gram_factor(spec: MomentSpec, families: Sequence[str]) -> np.ndarray:
    g = np.array(
        [[float(spec.gram.value(a, b)) for b in families] for a in families]
    ).reshape(len(families), len(families))
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(g)
        if w.min() < -1e-9 * max(w.max(), 1.0):
            raise ValueError("gram matrix is not positive semi-definite") from None
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _mc_draw(
    rng: np.random.Generator, families: int, count: int, m_dim: int, n_dim: int
) -> np.ndarray:
    """The next ``count`` raw standard normals of every family, uncorrelated
    and unscaled: shape (count, families, m_dim, n_dim)."""
    return rng.standard_normal((count, families, m_dim, n_dim))


def mc_oracle(
    spec: MomentSpec, samples: int, seed: int = 0, statistic: str = "moment"
) -> McReport:
    """Sample the Gaussian model and estimate the moment (or, for words of
    at most two factors, the plug-in cumulant).

    Only q = 1 has a matrix sampling model; the gram matrix must be
    positive semi-definite.  Wigner families are sampled as the symmetric
    part (X + X^T)/2 of a square Gaussian matrix.  The seed, the Philox
    key, is an integer in [0, 2**128).
    """
    if float(spec.q) != 1.0:
        raise ValueError("Monte Carlo sampling requires q = 1")
    if not 0 <= seed < 2**128:
        raise ValueError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    shape = spec.shape
    r = shape.r
    if statistic not in ("moment", "cumulant"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic == "cumulant" and r > 2:
        raise ValueError("plug-in cumulants are available up to r = 2 only")

    _enforce_budget(samples * max(shape.m, 1), "Monte Carlo sampling")

    families = tuple(dict.fromkeys(shape.labels))
    chol = _gram_factor(spec, families)
    n_dim, m_dim = spec.n_dim, spec.m_dim
    const = [mat.as_array() for mat in spec.matrices]
    eps = shape.epsilon
    ranges = shape.factor_ranges()
    fam_index = {f: i for i, f in enumerate(families)}

    rng = np.random.Generator(np.random.Philox(key=seed))
    factor_vals = [np.empty(samples) for _ in range(r)]
    fams = max(len(families), 1)
    chunk = max(1, _MC_CHUNK_BYTES // (8 * fams * m_dim * n_dim))
    block = max(1, _MC_BLOCK_BYTES // (8 * fams * max(m_dim, n_dim) ** 2))
    counts = [min(chunk, samples - done) for done in range(0, samples, chunk)]

    from concurrent.futures import ThreadPoolExecutor

    # One thread, the only code that touches rng, draws chunk k + 1 while
    # this one correlates and multiplies chunk k a block at a time, so two
    # chunks are in flight; both stages run in numpy with the GIL
    # released.  The chunks are taken in order, so the stream is the same.
    drawer = ThreadPoolExecutor(1)
    try:
        pending = drawer.submit(_mc_draw, rng, len(families), counts[0], m_dim, n_dim)
        done = 0
        for i, count in enumerate(counts):
            raw = pending.result()
            if i + 1 < len(counts):
                pending = drawer.submit(_mc_draw, rng, len(families), counts[i + 1], m_dim, n_dim)
            for lo in range(0, count, block):
                correlated = np.einsum("gh,shmn->sgmn", chol, raw[lo : lo + block])
                correlated /= math.sqrt(n_dim)
                letter_mats = {}
                for fam, gi in fam_index.items():
                    x = correlated[:, gi]
                    if fam in spec.wigner:
                        x = 0.5 * (x + np.swapaxes(x, -1, -2))
                    letter_mats[fam] = x
                at = done + lo
                for fi, (a, b) in enumerate(ranges):
                    prod = None
                    for k in range(a, b + 1):
                        x = letter_mats[shape.labels[k - 1]]
                        if shape.labels[k - 1] not in spec.wigner and eps[k - 1] == -1:
                            x = np.swapaxes(x, -1, -2)
                        prod = x if prod is None else prod @ x
                        prod = prod @ const[k - 1]
                    traces = np.einsum("sii->s", prod) / n_dim
                    factor_vals[fi][at : at + len(traces)] = traces
            done += count
    finally:
        # Waits for a draw in flight, so no thread outlives the call.
        drawer.shutdown(cancel_futures=True)

    def floats(values: np.ndarray):
        # Python floats, 4,096 (about 128 KiB) at a time: no list spans the samples.
        for lo in range(0, len(values), 4096):
            yield from values[lo : lo + 4096].tolist()

    # Once the means are taken, factor_vals is reused in place.
    factor_means = tuple(math.fsum(floats(fv)) / samples for fv in factor_vals)
    cumulant = statistic == "cumulant" and r == 2
    if cumulant:
        # Plug-in covariance of the two factors, stderr via its influence values.
        values, y2 = factor_vals
        values -= factor_means[0]
        y2 -= factor_means[1]
        values *= y2
    else:
        values = factor_vals[0] if r else np.ones(samples)
        for fv in factor_vals[1:]:
            values *= fv
    total = math.fsum(floats(values))
    mean = total / samples
    # A Python float's ** is the serial loop's C pow, which numpy's x * x
    # differs from in the last bit now and then, and it raises
    # OverflowError where numpy would warn and give inf.
    try:
        var = math.fsum((v - mean) ** 2 for v in floats(values)) / (samples - 1)
    except OverflowError:
        raise OverflowError(
            "Monte Carlo variance out of float range: the samples' squared "
            "deviations from their mean pass the largest double"
        ) from None
    return McReport(
        estimate=total / (samples - 1) if cumulant else mean,
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        factor_means=factor_means,
        statistic=statistic,
    )
