"""Pairing-sum evaluation of trace-word moments and cumulants.

The moment of a product of normalized trace factors is the sum, over all
pairings of the word's letters, of a per-pairing weight times the trace
product read off the particular vertex cycles, scaled by the global
prefactor N^(-m/2 - r).  Cumulants restrict the sum to pairings that
connect all factors (one orbit together with the factor rotation) and
carry the same prefactor, which is what makes moment-cumulant inversion
hold numerically.

Weights cover the generalized models: q^crossings for q-commutative
families and a Gram factor per block for Hilbert-indexed families; the
single-matrix model is q = 1 with a rank-one unit Gram.  Wigner letters
are averaged over both transpose signs with weight 1/2 per letter, which
requires square X.

Evaluation is one pass of a numpy kernel over contiguous chunks of the
canonical pairing table, refused up front, before any table is built, with
:class:`BudgetError` when its work, (m-1)!! * m * 2^w for w Wigner
letters, exceeds the budget it shares with the Wick oracle
(``WTE_BUDGET``).  Each list of factor lengths compiles once into a
plan (``_combinatorics``), which words that differ only in transpose
signs or family labels share: the constant index arrays of the factor
rotation and its inverse, the sheet face of every signed letter and the
cycle order key.  The transpose signs are an input: one int8 row per sign
assignment of the Wigner letters.  Per chunk, the decode gives each
pairing's partner row and blocks, crossings are counted over block
pairs, and one gluing of every pairing under every sign row reads the
vertex permutation, the closed form of ``gluing._vertex_image``, from a
table of each position's image per sign row and partner letter (one
gather per row), labels its cycles by pointer doubling (the smallest
position on each cycle is its canonical lead) and joins sheet faces into
components.  The per-pairing functions of ``gluing.py`` are the
specification the kernel is tested against.

A chunk has two halves.  Its skeleton (``_Skeleton``) is what the factor
lengths and the sign rows fix, as the Euler-characteristic expansion
says the word alone fixes the glued surfaces: the decode and the
gluing, the blocks and crossings, the census keys and connectivity, a
lockstep walk of every particular cycle from its lead, and the chunk's
distinct walked cycles with each row's indices into them; with it, built
on first use, the objects that terms share (block tuples, letter tuples,
each row's tuple of cycles and ``SurfaceReport``s).  The rest, per call
(``_Sum.columns``), is one weight per distinct crossing count and block
family pairs, and the kernel's last stage, ``_trace_walk``, which traces
the distinct cycles of nonzero-weight terms as a prefix trie: each
distinct prefix is multiplied once, in stacks, and every trace has the
bits of :func:`~wte.matrices.trace_along`, whose ``math.fsum`` sums a
float trace's diagonal.  It returns arrays (``_Columns``), from which
``assemble`` builds the chunk's terms, one ``TermReport`` call per term
through ``map`` over the skeleton's shared objects; ``TermReport`` sets
its slots through their descriptors.
Skeletons are memoised (``_skeleton``, an ``lru_cache``), keyed by the
plan, the sign rows' bytes, the chunk's first pairing and its pairings
per chunk, and bounded by 2 * (``_SHARD_CHUNKS`` - 1) = 14 entries,
least recently used out first.  Only sums of fewer than
``_SHARD_CHUNKS`` chunks enter, which always run in one process (m <= 12
without Wigner letters), and such a chunk holds at most ``_CHUNK_TERMS``
rows: with w <= 12 Wigner letters it is (4,096 >> w) pairings under 2^w
sign rows, and w >= 13 needs m >= 14, which is 8 chunks or more.  A row
holds about 370 bytes at m=12, so the memo holds at most about 22 MB.
So a sweep over N, a moment and then the cumulant of one spec, and
``clt_report`` over factors of equal lengths reuse them, while ``wte
moment`` and ``cumulant``, one sum a process, never do.  The census
reads no cycles and builds no skeleton: per chunk it decodes the
pairings and glues them once (``census_rows``).
A chunk depends only on its range of pairings, so ``columns`` may run in
worker processes (``threads``; see ``_mapped``), which return arrays
only, while the calling process builds the shared objects and assembles
the terms, in canonical order; every output bit is the same at any
thread count.  A term's
value is its weight times its cycles' traces, multiplied in cycle
order; a term of weight 0 has value 0 and its cycles are not traced.
A cumulant keeps a pairing when its surface has a single component (the
empty word counts as connected), which is read off the census key table:
every factor's component label is 0, the label of factor 1.  Float
evaluation reduces the chunks' float64 values with one correctly rounded
``fsum`` in canonical pairing order, so the same configuration gives the
same bits on every run.
Exact mode puts each chunk's distinct weights over one common
denominator: a term's value is the ``Fraction`` of its integer numerator
(the weight's numerator times the trace product), a chunk's numerators
are summed as plain ints once, and the total is the prefactor times the
sum of the chunks' fractions.  Over a denominator of 1 the values are
``Fraction(x)``, which skips the gcd.

Exact mode needs integer or rational entries in every slot of an even
word, since every term reads all m slots; this is checked once, before
any table is built.
Its traces multiply the matrices' int64 views instead of their object
views when every slot holds ``int`` entries and ``(amax * d)^L < 2^62``
for the largest |entry| amax, the largest dimension d and the cycle
length L: no entry of a partial product, and no trace, can then leave
int64, so the traces are the same Python ints.  The cycles that fit and
the rest are traced in two tries.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import math
import os
import signal
import time
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .gluing import (
    MirrorPropertyError,
    SurfaceReport,
    WordShape,
    _assemble_surface,
    _rotation_arrays,
    front_rotation,
    slot_dimensions,
)
from .matrices import DimensionError, Gram, Matrix
from .perm import Pairing, crossings, orbits, pairing_count

# The per-pairing specification the kernel is tested against; bound here
# too, so that a tracer finds every layer in this namespace.
from .gluing import particular_cycles, surface_census, vertex_permutation  # noqa: F401
from .matrices import trace_along  # noqa: F401
from .perm import enumerate_pairings  # noqa: F401

Number = Union[int, float, Fraction]

DEFAULT_BUDGET = 100_000_000
BUDGET_ENV_VAR = "WTE_BUDGET"


class BudgetError(RuntimeError):
    """The requested evaluation exceeds the work budget."""


class WorkerError(RuntimeError):
    """A worker process of a sharded pairing sum ended abruptly."""


def _enforce_budget(work: int, what: str) -> None:
    """Refuse ``work`` operations of ``what`` past the budget:
    ``WTE_BUDGET`` or :data:`DEFAULT_BUDGET`."""
    env = os.environ.get(BUDGET_ENV_VAR)
    try:
        limit = int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} takes an integer, got {env!r}") from None
    if work > limit:
        raise BudgetError(
            f"{what} needs ~{work} operations, budget is {limit} "
            f"(set {BUDGET_ENV_VAR} to raise it)"
        )


def _check_budget(m: int, w: int = 0) -> None:
    """Refuse a pairing sum over m letters with w Wigner letters whose
    work, (m-1)!! pairings times m letters times 2^w sign assignments,
    exceeds the budget."""
    _enforce_budget(pairing_count(m) * max(m, 1) * 2**w, "pairing sum")


@dataclass(frozen=True)
class MomentSpec:
    """A fully bound trace-word problem ready for evaluation.

    ``matrices`` holds the slot matrices in slot order (any sequence is
    stored as a tuple).  X-type letters are m_dim x n_dim; traces are
    always normalized by n_dim.  ``wigner`` names the families averaged
    over both transpose signs (square case only).  The default Gram
    makes distinct families independent with unit norm, which for a
    single family is the plain single-matrix model.
    """

    shape: WordShape
    matrices: tuple[Matrix, ...]
    n_dim: int
    m_dim: int
    q: Number = 1
    gram: Optional[Gram] = None
    wigner: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.n_dim < 1 or self.m_dim < 1:
            raise ValueError("matrix dimensions must be positive")
        if not -1 <= float(self.q) <= 1:
            raise ValueError(f"q must lie in [-1, 1], got {self.q}")
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "wigner", frozenset(self.wigner))
        if self.gram is None:
            object.__setattr__(
                self, "gram", Gram.identity(tuple(dict.fromkeys(self.shape.labels)))
            )
        elif not self.gram.covers(self.shape.labels):
            missing = sorted(set(self.shape.labels) - set(self.gram.labels))
            raise ValueError(f"gram matrix does not cover families: {missing}")
        unknown = self.wigner - set(self.shape.labels)
        if unknown:
            raise ValueError(f"wigner families not in the word: {sorted(unknown)}")
        if self.wigner and self.n_dim != self.m_dim:
            raise DimensionError("Wigner letters need square X, so N must equal M")
        mats = self.matrices
        if len(mats) != self.shape.m:
            raise ValueError(f"word has {self.shape.m} slots, matrix set has {len(mats)}")
        profile = slot_dimensions(self.shape, self.n_dim, self.m_dim)
        for k, (mat, want) in enumerate(zip(mats, profile), start=1):
            if (mat.rows, mat.cols) != want:
                raise DimensionError(
                    f"slot {k} expected {want[0]}x{want[1]}, got {mat.rows}x{mat.cols}"
                )
            for i, row in enumerate(mat.entries, start=1):
                for j, x in enumerate(row, start=1):
                    if isinstance(x, float) and not math.isfinite(x):
                        raise ValueError(
                            f"slot {k} entry ({i}, {j}) is {x}: matrix entries must be finite"
                        )

    def fingerprint(self) -> str:
        """Stable content hash for reproducibility metadata."""
        h = hashlib.sha256()
        parts = [
            repr(self.shape.lengths),
            repr(self.shape.epsilon),
            repr(self.shape.labels),
            repr((self.n_dim, self.m_dim)),
            repr(str(self.q)),
            repr(self.gram.labels),
            repr(tuple(tuple(str(x) for x in row) for row in self.gram.entries)),
            repr(sorted(self.wigner)),
        ]
        for mat in self.matrices:
            parts.append(repr(tuple(tuple(str(x) for x in row) for row in mat.entries)))
        h.update("|".join(parts).encode())
        return h.hexdigest()


@dataclass(frozen=True, slots=True)
class TermReport:
    """One summand of the pairing sum, before the global prefactor."""

    index: int
    blocks: tuple[tuple[int, int], ...]
    weight: Number
    cycles: tuple[tuple[int, ...], ...]
    surface: SurfaceReport
    order_exponent: int
    value: Number
    epsilon: Optional[tuple[int, ...]] = None


def _term_init():
    """``TermReport.__init__``: each field set through its slot
    descriptor's ``__set__``, not the frozen dataclass's
    ``object.__setattr__``, which builds a term in about half the time."""
    (set_index, set_blocks, set_weight, set_cycles, set_surface, set_order,
     set_value, set_epsilon) = (getattr(TermReport, f.name).__set__ for f in fields(TermReport))

    def __init__(self, index, blocks, weight, cycles, surface, order_exponent, value, epsilon=None):
        set_index(self, index)
        set_blocks(self, blocks)
        set_weight(self, weight)
        set_cycles(self, cycles)
        set_surface(self, surface)
        set_order(self, order_exponent)
        set_value(self, value)
        set_epsilon(self, epsilon)

    __init__.__qualname__ = "TermReport.__init__"
    return __init__


TermReport.__init__ = _term_init()


@dataclass(frozen=True)
class MomentResult:
    """Total with its term decomposition and run metadata.

    ``total`` equals n_dim**prefactor_exponent times the sum of term
    values (up to float accumulation).  ``prefactor_exponent`` is only
    meaningful when terms exist; an odd letter count yields total 0 with
    no terms.
    """

    total: Number
    prefactor_exponent: int
    terms: tuple[TermReport, ...]
    metadata: dict = field(default_factory=dict, compare=False)


def pairing_weight(p: Pairing, spec: MomentSpec, exact: bool = False) -> Number:
    """q^crossings(p) times the product of Gram entries over the blocks.

    The convention q**0 = 1 applies for every q including 0, so q = 0
    keeps exactly the noncrossing pairings.
    """
    labels = spec.shape.labels
    pairs = [(labels[a - 1], labels[b - 1]) for a, b in p.blocks()]
    return _block_weight(crossings(p), pairs, spec, exact)


def _block_weight(
    cross: int, pairs: Sequence[tuple[str, str]], spec: MomentSpec, exact: bool
) -> Number:
    """q^cross times the Gram entries of the blocks' family pairs, in
    block order."""
    weight = _as_number(spec.q, exact) ** cross
    for a, b in pairs:
        weight *= _as_number(spec.gram.value(a, b), exact)
    return weight


def _as_number(x: Number, exact: bool) -> Number:
    if exact:
        return x if isinstance(x, (int, Fraction)) else Fraction(x)
    return float(x)


def moment(spec: MomentSpec, *, exact: bool = False, threads: int = 1) -> MomentResult:
    """Expected value of the product of the word's normalized trace factors.

    Odd letter counts give exactly 0 with an empty term list.  Wigner
    families are averaged over both transpose signs per occurrence.
    ``threads`` worker processes share the pairing sum (0: one per
    available CPU; see ``_workers``); the result is the same at any
    value.
    """
    return _evaluate(spec, transitive_only=False, exact=exact, threads=threads)


def cumulant(spec: MomentSpec, *, exact: bool = False, threads: int = 1) -> MomentResult:
    """Joint cumulant of the word's factors: the pairing sum restricted to
    pairings connecting all factors, with the same global prefactor.

    A pairing connects all factors when its glued surface has a single
    component; the empty word counts as connected.  ``threads`` is as
    in :func:`moment`.
    """
    return _evaluate(spec, transitive_only=True, exact=exact, threads=threads)


def is_transitive(p: Pairing, shape: WordShape) -> bool:
    """True when the pairing connects all factors: the factor rotation and
    the pairing together have a single orbit on the letters.

    The engine reads this off the kernel's components; tests use this
    function as the independent reference."""
    if shape.m == 0:
        return shape.r <= 1
    return len(orbits([front_rotation(shape), p], tuple(range(1, shape.m + 1)))) == 1


# Terms per kernel chunk (pairing rows times sign assignments), so that
# the kernel's arrays stay small however many pairings there are.
_CHUNK_TERMS = 4096


def _pairing_table(m: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partner rows, 1-based, of the pairings with canonical indices
    start..stop-1, and per row the first and second letters of its blocks
    in ``Pairing.blocks`` order.

    An index's mixed-radix digits, with radices m-1, m-3, ..., 1 from the
    most significant, say which of the remaining letters the smallest
    unpaired letter takes: the order of ``enumerate_pairings``.  So each
    digit decodes one block (a, b), in order of a.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    rows = np.arange(len(idx))
    partner = np.zeros((len(idx), m), dtype=np.int64)
    opens, closes = np.zeros((2, len(idx), m // 2), dtype=np.int64)
    avail = np.tile(np.arange(1, m + 1), (len(idx), 1))
    for block, width in enumerate(range(m, 0, -2)):
        digit, idx = np.divmod(idx, pairing_count(width - 2))
        a, b = avail[:, 0], avail[rows, digit + 1]
        opens[:, block], closes[:, block] = a, b
        partner[rows, a - 1] = b
        partner[rows, b - 1] = a
        keep = np.arange(width - 1) != digit[:, None]
        avail = avail[:, 1:][keep].reshape(len(idx), width - 2)
    return partner, opens, closes


def _block_rows(opens: np.ndarray, closes: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Per row, ``Pairing.blocks``; rows share their (a, b) tuples."""
    m = 2 * opens.shape[1]
    pairs = [(a, b) for a in range(m + 1) for b in range(m + 1)]
    return _tuples(opens.astype(np.intp) * (m + 1) + closes, np.full(len(opens), m // 2), pairs)


def _tuples(table: np.ndarray, length: np.ndarray, items: list) -> list[tuple]:
    """Per row of ``table``, the tuple of ``items[x]`` for the row's first
    ``length`` entries x.  The rows of one length zip their columns, so
    every tuple is built in C from the objects of ``items``."""
    order = np.argsort(length, kind="stable")
    out: list[tuple] = []
    for rows in np.split(order, np.flatnonzero(np.diff(length[order])) + 1):
        n = int(length[rows[0]]) if len(rows) else 0
        columns = [map(items.__getitem__, col) for col in table[rows, :n].T.tolist()]
        out += zip(*columns) if n else [()] * len(rows)
    if (np.diff(length) >= 0).all():  # the rows were in length order already
        return out
    return list(map(out.__getitem__, np.argsort(order).tolist()))


def _crossings(opens: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """Per row, ``crossings`` of the pairing: the block pairs (i, j),
    (k, l) with i < k < j < l."""
    i, j = opens[:, :, None], closes[:, :, None]
    k, l = opens[:, None, :], closes[:, None, :]
    return ((i < k) & (k < j) & (j < l)).sum(axis=(1, 2))


def _row_codes(key: np.ndarray) -> np.ndarray:
    """One int64 per row of a non-negative integer array, equal for equal
    rows and ordered as the rows are lexicographically, so that
    ``np.unique`` of the codes groups the rows without sorting records."""
    code = np.zeros(len(key), dtype=np.int64)
    for col in key.T:
        col = col.astype(np.int64)
        radix = int(col.max(initial=0)) + 1
        if int(code.max(initial=0)) >= (1 << 62) // radix:
            # Renumber the distinct prefixes densely before they overflow.
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
        code = code * radix + col
    return code


class _Plan:
    """The constant index arrays of the words with these factor lengths,
    for the kernel; the transpose signs are an input of ``glue``, one row
    per sign assignment.

    The signed letters sit at positions in cycle-key order: +k at
    2(k-1) and -k at 2(k-1)+1, so x ^ 1 is the mirror letter and a
    cycle's canonical lead is its smallest position.
    """

    def __init__(self, lengths: tuple[int, ...]):
        m, r = sum(lengths), len(lengths)
        gamma, gamma_inv = _rotation_arrays(lengths)
        self.lengths, self.m, self.r = lengths, m, r
        self.signed = [(x // 2 + 1) * (-1 if x % 2 else 1) for x in range(2 * m)]
        # ``_vertex_image``: with a = gamma(k) for k > 0 and a = k otherwise,
        # and l = p(|a|), v(k) is +l if -sign(a) eps(|a|) eps(l) > 0, else
        # -gamma_inv(l).  ``plain`` and ``flipped`` are those two positions.
        a = [gamma[k] if k > 0 else k for k in self.signed]
        self.letter = np.array([abs(x) - 1 for x in a], dtype=np.intp)
        self.turn = np.array([-1 if x > 0 else 1 for x in a], dtype=np.int8)
        self.plain = 2 * np.arange(-1, m)
        self.flipped = 2 * np.array(gamma_inv) - 1
        # Sheet face of each position: factor f on the front, f + r on the back.
        self.factor = np.repeat(np.arange(r), lengths)
        self.face = self.factor.repeat(2) + r * (np.arange(2 * m) % 2)
        self.doublings = max(2 * m - 1, 0).bit_length()
        self.closures = max(2 * r - 2, 0).bit_length()

    def glue(self, partner: np.ndarray, eps: np.ndarray) -> "_Gluing":
        """Vertex cycles and surface census of every pairing in ``partner``
        under every sign row of ``eps`` (column k: letter k's sign): row
        i * len(eps) + j is pairing i under ``eps[j]``."""
        m, r = self.m, self.r
        count = len(partner) * len(eps)
        rows = np.arange(count)[:, None]
        pos = np.arange(2 * m)
        # lut[s, x, l]: the image of position x under sign row s when the
        # letter ``letter[x]`` has partner l, read by one gather per row.
        turn = (self.turn * eps[:, self.letter + 1])[:, :, None] * eps[:, None, :]
        lut = np.where(turn > 0, self.plain, self.flipped)
        at = pos * (m + 1) + 2 * m * (m + 1) * np.arange(len(eps))[:, None]
        img = lut.reshape(-1)[(partner[:, self.letter][:, None] + at).reshape(count, 2 * m)]
        base = 2 * m * rows  # flat index of each row's position 0

        # Pointer doubling: after j steps, lead[x] is the smallest position
        # among x, v(x), ..., v^(2^j - 1)(x); 2^j >= 2m covers every cycle.
        lead, hop = np.tile(pos, count), (img + base).ravel()
        for _ in range(self.doublings):
            lead = np.minimum(lead, lead[hop])
            hop = hop[hop]
        is_lead = lead.reshape(img.shape) == pos
        particular = is_lead[:, 0::2]  # leads that are positive letters
        if (is_lead.sum(axis=1) != 2 * particular.sum(axis=1)).any():
            raise MirrorPropertyError("cycle count is not twice the particular count")
        unmirrored = img.ravel()[(img ^ 1) + base] != pos ^ 1
        if unmirrored.any():
            k = self.signed[np.nonzero(unmirrored)[1][0]]
            raise MirrorPropertyError(f"the cycle through {k} has no mirror partner")

        # Join the sheet faces of x and v(x) for every signed x, then close
        # the joins transitively; class[n] is the smallest face joined to n.
        joined = np.zeros((count, 2 * r, 2 * r), dtype=bool)
        joined[rows, self.face, self.face[img]] = True
        joined |= joined.transpose(0, 2, 1) | np.eye(2 * r, dtype=bool)
        for _ in range(self.closures):
            hops = joined.astype(np.float32)
            joined = hops @ hops > 0
        classes = joined.argmax(axis=2) if r else np.zeros((count, 0), np.intp)
        # A component is named by its smallest factor; it is orientable iff
        # its front and back faces stay in different classes.
        component = np.minimum(classes[:, :r], classes[:, r:])
        orientable = classes[:, :r] != classes[:, r:]
        owner = rows * r + component[:, self.factor]
        vertices = np.bincount(owner[particular], minlength=count * r)
        key = np.concatenate(
            [component, orientable, vertices.reshape(count, r)], axis=1
        )
        # One census per distinct key row, which the chunk's rows share.
        _, firsts, kind = np.unique(_row_codes(key), return_index=True, return_inverse=True)
        return _Gluing(img, particular, key[firsts], kind.reshape(-1))


@dataclass(frozen=True)
class _Gluing:
    """The kernel's output for one chunk: per row (a pairing under one sign
    assignment), the vertex image of each position, which positive letters
    lead a particular cycle, and the index of its census key in ``keys``,
    the chunk's distinct keys (see ``_surfaces``)."""

    img: np.ndarray
    particular: np.ndarray
    keys: np.ndarray
    kind: np.ndarray


def _surfaces(lengths: tuple[int, ...], keys: np.ndarray, kind: np.ndarray) -> list[SurfaceReport]:
    """The census of each row from the index ``kind`` of its key in
    ``keys``, whose rows hold per factor its component, then per component
    its orientability and its vertex count; the rows of one key share its
    report."""
    r = len(lengths)
    reports = [
        _assemble_surface(lengths, k[:r], k[r : 2 * r], k[2 * r :]) for k in keys.tolist()
    ]
    return list(map(reports.__getitem__, kind.tolist()))


def _cycle_walk(img: np.ndarray, particular: np.ndarray) -> np.ndarray:
    """The positions of every row's particular cycles, walked from their
    leads in lockstep: one row per cycle, by row and then by lead, padded
    with 2m after the cycle closes."""
    rows, leads = np.nonzero(particular)
    lead = 2 * leads
    flat, pad = img.ravel(), img.shape[1]
    base = pad * rows
    walk = np.full((len(lead), max(pad // 2, 1)), pad, dtype=np.min_scalar_type(pad))
    x, open_, steps = lead, np.ones(len(lead), dtype=bool), 0
    while open_.any():
        walk[:, steps] = np.where(open_, x, pad)
        steps += 1
        x = flat[base + x]
        open_ &= x != lead
    return walk[:, : max(steps, 1)]


def _letters(walk: np.ndarray, signed: list[int]) -> list[tuple[int, ...]]:
    """Each walked cycle as its tuple of signed letters, which are the
    objects of ``signed``, so that equal letters are one int object."""
    return _tuples(walk, (walk != len(signed)).sum(axis=1), signed)


def _trace_walk(walk: np.ndarray, mats: Sequence[Matrix], exact: bool) -> list[Number]:
    """``trace_along((cycle,), mats, exact)`` for the cycle of each row of
    ``walk``, in order: position x is slot x // 2 + 1, transposed when x
    is odd, and 2m pads a row after its cycle closes.  Rows may repeat
    and come in any order.

    The kernel's cycles need no checks: their slots lie in 1..m and none
    repeats (the mirror checks in ``glue``), and they chain (``MomentSpec``
    checks the profile).  The rows form a prefix trie (see
    ``_trie_traces``), which multiplies a prefix that adjacent rows share
    once, so sorted distinct rows (as a ``_Skeleton``'s ``walk`` holds)
    share the most.  An exact cycle of length L is traced in int64 when
    every slot holds ``int`` entries and ``(amax * d)^L < 2^62`` (see the
    module docstring), and in object arrays otherwise, so the cycles that
    fit and the rest are two tries.
    """
    if not len(walk):
        return []
    m = len(mats)
    length = (walk < 2 * m).sum(axis=1)
    # Per position (2m the pad, read as slot m: a 0 x 0 matrix aliasing no
    # slot): its slot, transpose flag, view rows and cols, storage shape
    # and index in that shape's stack, and the first slot of its matrix.
    x = np.arange(2 * m + 1)
    slot, neg = x // 2, x % 2
    dims = np.array([(a.rows, a.cols) for a in mats] + [(0, 0)], dtype=np.int64)
    shapes = list(dict.fromkeys((a.rows, a.cols) for a in mats))
    kind = np.array([shapes.index((a.rows, a.cols)) for a in mats] + [0])
    where = np.zeros(m + 1, dtype=np.intp)
    for k in range(m):
        where[k] = (kind[:k] == kind[k]).sum()
    ident = np.array([next(j for j, b in enumerate(mats) if b is a) for a in mats] + [m])
    pos = {
        "rows": np.where(neg, dims[slot, 1], dims[slot, 0]),
        "cols": np.where(neg, dims[slot, 0], dims[slot, 1]),
        "kind": kind[slot],
        "where": where[slot],
        "ident": ident[slot],
        "neg": neg,
    }
    # Every entry of an L-matrix product and its trace is at most
    # (amax * d)^L in absolute value; None when some slot is not all int.
    amaxes = [a.amax for a in mats]
    fits = np.zeros(int(length.max()) + 1, dtype=bool)
    if exact and None not in amaxes:
        scale = max(amaxes, default=0) * int(dims.max(initial=0))
        fits = np.array([scale**n < 1 << 62 for n in range(len(fits))])
    traces = np.empty(len(walk), dtype=object)
    for int64 in (True, False):
        rows = np.flatnonzero(fits[length] == int64)
        if len(rows):
            store = []
            for shape in shapes:
                same = [a for a in mats if (a.rows, a.cols) == shape]
                store.append(np.stack([a.as_int64() if int64 else a.as_array(exact) for a in same]))
            traces[rows] = _trie_traces(walk[rows], length[rows], pos, store, exact)
    return traces.tolist()


def _trie_traces(
    walk: np.ndarray, length: np.ndarray, pos: dict, store: list[np.ndarray], exact: bool
) -> np.ndarray:
    """The traces of the rows of ``walk``, read off their prefix trie one
    level at a time.

    A node at level j is a run of adjacent rows that share a prefix of
    j + 1 positions; in sorted rows, every distinct prefix is one node.
    Its product is its parent's product @ the view at position j, the left
    fold ``trace_along`` takes; at level 0 it is the view itself, a matrix of
    ``store[kind][where]``, transposed for a negative position.  A level's
    nodes are gathered in groups of one left product shape, left
    transpose flag, view shape and view transpose flag, and each group is
    one gather and one stacked ``@`` in which every matrix has the strides
    ``trace_along`` gives it, so each trace has the same bits.  Where a
    cycle's first two slots hold one matrix with opposite signs, the
    second factor is the transposed view of the first stack, as
    ``trace_along``'s are views of one array.  The products of a level are
    kept in one stack per shape.  A float product that overflows is inf or
    nan without a warning, as ``trace_along``'s Python products are.
    """
    count = len(walk)
    traces = np.empty(count, dtype=object)
    # Per row, where its node at the current level keeps its product:
    # prods[at_kind][at_where], transposed when at_neg.
    prods, first = store, walk[:, 0]
    at_kind, at_where, at_neg = pos["kind"][first], pos["where"][first], pos["neg"][first]
    fresh = np.ones(count, dtype=bool)
    fresh[1:] = first[1:] != first[:-1]
    for j in range(int(length.max())):
        if j:
            x = walk[:, j]
            fresh[1:] |= x[1:] != x[:-1]
            new = fresh & (length > j)
            s, node = np.flatnonzero(new), np.cumsum(new) - 1
            x = x[s]
            alias = np.zeros(len(s), dtype=bool)
            if j == 1:
                alias = (pos["ident"][first[s]] == pos["ident"][x]) & (at_neg[s] != pos["neg"][x])
            key = np.column_stack([
                pos["rows"][first[s]], pos["cols"][x], at_kind[s], at_neg[s],
                pos["kind"][x], pos["neg"][x], alias,
            ])
            order = np.argsort(_row_codes(key), kind="stable")
            key = key[order]
            # The level's products, one stack per (rows, cols): sorted by
            # the key, each shape's nodes and each group's are adjacent.
            cut = np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1
            shape_cut = np.flatnonzero((key[1:, :2] != key[:-1, :2]).any(axis=1)) + 1
            kind = np.searchsorted(shape_cut, np.arange(len(s)), side="right")
            starts, ends = np.concatenate([[0], shape_cut]), np.append(shape_cut, len(s))
            where = np.arange(len(s)) - starts[kind]
            level = [np.empty((e - a, *key[a, :2]), store[0].dtype) for a, e in zip(starts, ends)]
            for a, b in zip([0, *cut.tolist()], [*cut.tolist(), len(s)]):
                rows, k = s[order[a:b]], key[a]
                left = prods[k[2]][at_where[rows]]
                if k[3]:
                    left = left.transpose(0, 2, 1)
                if k[6]:
                    right = left.transpose(0, 2, 1)
                else:
                    right = store[k[4]][pos["where"][walk[rows, j]]]
                    if k[5]:
                        right = right.transpose(0, 2, 1)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.matmul(left, right, out=level[kind[a]][where[a] : where[a] + b - a])
            prods = level
            node_kind, node_where = np.empty((2, len(s)), dtype=np.intp)
            node_kind[order], node_where[order] = kind, where
            at_kind, at_where, at_neg = node_kind[node], node_where[node], np.zeros(count, bool)
        ending = np.flatnonzero(length == j + 1)
        for k in np.flatnonzero(np.bincount(at_kind[ending])).tolist():
            rows = ending[at_kind[ending] == k]
            diagonal = prods[k].diagonal(axis1=1, axis2=2)[at_where[rows]]
            sums = diagonal.sum(axis=1).tolist() if exact else map(math.fsum, diagonal.tolist())
            traces[rows] = list(sums)
    return traces


@lru_cache(maxsize=64)
def _combinatorics(lengths: tuple[int, ...]) -> _Plan:
    """The kernel's plan for the words with these factor lengths:
    independent of the transpose signs, the labels, the pairing, the
    matrices and the dimensions."""
    return _Plan(lengths)


class _Skeleton:
    """The half of one chunk of the pairing sum that the factor lengths and
    the sign rows fix, whatever the labels, q, Gram, matrices and
    dimensions: the chunk of at most ``rows`` canonical pairings from index
    ``first``, each glued under every row of the int8 sign table ``eps``
    whose bytes are ``signs`` (bytes, so that the arguments are a memo key),
    so that row i * len(eps) + j is pairing i under ``eps[j]``, as in
    ``_Plan.glue``.

    Per pairing: its blocks' first and second letters (``opens``,
    ``closes``), its crossings and whether its surface is connected.  Per
    row: the index of its census key in ``keys`` (see ``_surfaces``) and
    its particular-cycle count.  ``walk`` holds the chunk's distinct walked
    cycles, sorted, and ``ids`` per row the indices of its cycles in
    ``walk``, in lead order, padded with ``len(walk)``.  The arrays are
    read-only.  The objects that terms share, one per row (``blocks``,
    ``cycles``, ``surfaces``, ``orders``), are built on first use, so a
    worker process, which returns the arrays, builds none.
    """

    def __init__(self, plan: _Plan, signs: bytes, first: int, rows: int):
        eps = np.frombuffer(signs, dtype=np.int8).reshape(-1, plan.m + 1)
        self.first, self.signs = first, len(eps)
        self.lengths, self.signed = plan.lengths, plan.signed
        stop = min(pairing_count(plan.m), first + rows)
        partner, opens, closes = _pairing_table(plan.m, first, stop)
        self.cross = _crossings(opens, closes)
        # Letters fit in uint8: the decode's int64 pairing indices stop at m = 34.
        self.opens, self.closes = opens.astype(np.uint8), closes.astype(np.uint8)
        gluing = plan.glue(partner, eps)
        self.keys, self.kind = gluing.keys, gluing.kind
        # The components of the letters do not depend on the transpose
        # signs, so any sign row's census key decides connectivity: a
        # factor's component is labelled by its smallest factor, so every
        # label is 0 exactly when the surface is connected (the empty word
        # has no labels and counts as connected).
        self.connected = (self.keys[self.kind[:: self.signs], : plan.r] == 0).all(axis=1)
        walk = _cycle_walk(gluing.img, gluing.particular)
        self.counts = gluing.particular.sum(axis=1)
        _, firsts, cycle = np.unique(_row_codes(walk), return_index=True, return_inverse=True)
        self.walk = walk[firsts]
        self.ids = np.full(
            (len(self.counts), int(self.counts.max(initial=0))), len(firsts),
            dtype=np.min_scalar_type(len(firsts)),
        )
        row = np.repeat(np.arange(len(self.counts)), self.counts)
        at = np.arange(len(row)) - (np.cumsum(self.counts) - self.counts)[row]
        self.ids[row, at] = cycle.reshape(-1)
        for a in (self.opens, self.closes, self.cross, self.connected, self.keys, self.kind,
                  self.counts, self.walk, self.ids):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        """The chunk's rows: its pairings times its sign rows."""
        return len(self.kind)

    @cached_property
    def blocks(self) -> list[tuple[tuple[int, int], ...]]:
        """Per row, ``Pairing.blocks`` of its pairing."""
        pairings = _block_rows(self.opens, self.closes)
        if self.signs == 1:
            return pairings
        return list(map(pairings.__getitem__, np.arange(len(pairings)).repeat(self.signs).tolist()))

    @cached_property
    def cycles(self) -> list[tuple[tuple[int, ...], ...]]:
        """Per row, its particular cycles as tuples of signed letters; equal
        cycles are one tuple."""
        return _tuples(self.ids, self.counts, _letters(self.walk, self.signed))

    @cached_property
    def surfaces(self) -> list[SurfaceReport]:
        """Per row, its census; the rows of one key share one report."""
        return _surfaces(self.lengths, self.keys, self.kind)

    @cached_property
    def orders(self) -> list[int]:
        """Per row, its census's order exponent."""
        return [s.order_exponent for s in self.surfaces]


# Fewer chunks than this run in one process: starting the workers costs
# about one chunk's work per worker, and on a 2-vCPU host sums of 3 and 6
# chunks ran slower sharded than in one process, sums of 11 and 21 faster.
_SHARD_CHUNKS = 8

# The skeletons of the sums of fewer than ``_SHARD_CHUNKS`` chunks, which
# always run in one process: two of the largest such sums, least recently
# used out first (see the module docstring).
_skeleton = lru_cache(maxsize=2 * (_SHARD_CHUNKS - 1))(_Skeleton)


def census_rows(shape: WordShape) -> Iterator[tuple[int, tuple, SurfaceReport, int]]:
    """Every pairing's (index, blocks, surface census, crossings), in
    canonical order, for the transpose signs as written: per chunk, one
    decode and one gluing, and no cycle walk."""
    _check_budget(shape.m)
    plan, as_written = _combinatorics(shape.lengths), np.array([(0, *shape.epsilon)], dtype=np.int8)
    total = pairing_count(shape.m)
    for first in range(0, total, _CHUNK_TERMS):
        partner, opens, closes = _pairing_table(shape.m, first, min(total, first + _CHUNK_TERMS))
        gluing = plan.glue(partner, as_written)
        yield from zip(itertools.count(first), _block_rows(opens, closes),
                       _surfaces(plan.lengths, gluing.keys, gluing.kind),
                       _crossings(opens, closes).tolist())


@dataclass(frozen=True)
class _Columns:
    """One chunk's terms as arrays, made by ``_Sum.columns`` and turned
    into ``TermReport``s by ``_Sum.assemble``: the chunk's skeleton, the
    rows of it that are terms, in canonical order, and per term the index
    of its weight in ``weights`` and its value, a float64, or in exact mode
    an integer numerator over ``den``.  ``total`` is the exact sum of the
    values, 0 in float mode.
    """

    skeleton: _Skeleton
    rows: np.ndarray
    weights: list
    weight: np.ndarray
    values: Union[np.ndarray, list]
    den: int
    total: Number


class _Sum:
    """One evaluation's pairing sum over the chunks that start at
    ``firsts``.  Each chunk is ``columns``, its array work, which a worker
    process may run since it reads nothing but its first index and this
    object, and then ``assemble``, which builds its terms."""

    def __init__(self, spec: MomentSpec, wigner_pos: list[int], transitive_only: bool, exact: bool):
        shape, w = spec.shape, len(wigner_pos)
        self.spec, self.transitive_only, self.exact = spec, transitive_only, exact
        # One row of transpose signs per assignment to the Wigner letters, in
        # itertools.product order; column k is letter k's sign.
        self.eps = np.tile(np.array((0, *shape.epsilon), dtype=np.int8), (2**w, 1))
        self.eps[:, wigner_pos] = list(itertools.product((1, -1), repeat=w))
        self.epsilons = [tuple(row) for row in self.eps[:, 1:].tolist()] if w else [None]
        self.share: Number = Fraction(1, 2**w) if exact else 0.5**w
        self.plan = _combinatorics(shape.lengths)
        self.families = tuple(dict.fromkeys(shape.labels))
        self.family = np.array([self.families.index(lab) for lab in shape.labels], dtype=np.int64)
        self.pairs = [(a, b) for a in self.families for b in self.families]  # by code of (a, b)
        rows = max(1, _CHUNK_TERMS >> w)
        self.rows, self.firsts = rows, range(0, pairing_count(shape.m), rows)
        self.skeleton = _skeleton if len(self.firsts) < _SHARD_CHUNKS else _Skeleton
        self.signs = self.eps.tobytes()

    def columns(self, first: int) -> _Columns:
        """The per-call work of the chunk from pairing ``first`` on its
        skeleton: weights, traces and values."""
        spec, exact, signs = self.spec, self.exact, len(self.eps)
        s = self.skeleton(self.plan, self.signs, first, self.rows)
        codes = self.family[s.opens - 1] * len(self.families) + self.family[s.closes - 1]
        key = np.column_stack([s.cross, codes])
        # One weight per distinct (crossings, block family pairs) row.
        _, firsts, kind = np.unique(_row_codes(key), return_index=True, return_inverse=True)
        weights = [
            _block_weight(k[0], [self.pairs[c] for c in k[1:]], spec, exact) * self.share
            for k in key[firsts].tolist()
        ]
        # Terms in canonical order: by pairing, then by sign assignment.
        rows = np.arange(s.size)
        if self.transitive_only:
            rows = np.flatnonzero(s.connected.repeat(signs))
        kind = kind.reshape(-1).repeat(signs)[rows]
        den = 1
        if exact:
            # The distinct weights over one common denominator den: a term's
            # value is its integer weight numerator times its traces, over den.
            den = math.lcm(*(x.denominator for x in weights))
            weight = np.array([x.numerator * (den // x.denominator) for x in weights], dtype=object)
        else:
            weight = np.array(weights, dtype=float)
        weight = weight[kind]
        zero = weight == 0
        ids = s.ids[rows]
        # The distinct cycles' traces, then 1 for the pad: a cycle that no
        # term of nonzero weight has reads 0 and is not traced.
        need = np.zeros(len(s.walk) + 1, dtype=bool)
        need[ids[~zero]] = True
        need[-1] = False
        traces = np.zeros(len(need), dtype=object if exact else float)
        traces[need] = _trace_walk(s.walk[need[:-1]], spec.matrices, exact)
        traces[-1] = 1

        # trace_along(cycles) multiplies its cycles' traces in order from 1,
        # and so do the columns of the grid, padded with 1.  The mirror
        # checks in glue already rule out a slot repeated across a term's
        # cycles, which trace_along would refuse.
        product = np.ones(len(rows), dtype=traces.dtype)
        with np.errstate(all="ignore"):  # overflow gives inf, as in Python floats
            for column in traces[ids].T:
                product = product * column
            if exact:
                # An untraced cycle reads 0, so a term of weight 0 has
                # numerator 0.
                values = (weight * product).tolist()
                total: Number = Fraction(sum(values), den)
            else:
                values, total = np.where(zero, weight, weight * product), 0
        return _Columns(s, rows, weights, kind, values, den, total)

    def assemble(self, c: _Columns) -> list[TermReport]:
        """The chunk's terms, built column by column from the objects of its
        skeleton, which its terms and every call that shares the skeleton
        share."""
        s = c.skeleton
        if not self.exact:
            values = c.values.tolist()
        elif c.den == 1:  # Fraction(x) skips the gcd
            values = list(map(Fraction, c.values))
        else:
            values = [Fraction(x, c.den) for x in c.values]
        shared = [s.blocks, s.cycles, s.surfaces, s.orders]
        if len(c.rows) < s.size:
            rows = c.rows.tolist()
            shared = [map(column.__getitem__, rows) for column in shared]
        blocks, cycles, surfaces, orders = shared
        return list(map(
            TermReport,
            (s.first + c.rows // s.signs).tolist(),
            blocks,
            map(c.weights.__getitem__, c.weight.tolist()),
            cycles,
            surfaces,
            orders,
            values,
            self.epsilons * (len(c.rows) // len(self.eps)),
        ))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads: int, chunks: int) -> int:
    """Worker processes for a sum of ``chunks`` chunks at ``threads``:
    that many, or one per available CPU at 0, but never more than the
    CPUs or the chunks.  One means the sum runs in this process, as it
    always does below ``_SHARD_CHUNKS`` chunks and without ``os.fork``."""
    if chunks < _SHARD_CHUNKS or not hasattr(os, "fork"):
        return 1
    cpus = _cpus()
    return min(threads or cpus, cpus, chunks)


# Python 3.12 and later warn at each fork of a process with more than one
# thread, which numpy's BLAS has from import on; its pthread_atfork
# handlers stop those threads around the fork.
_FORK_WARNING = r"This process .* is multi-threaded"

# The sum a worker process computes columns of, set as the worker starts.
_WORKER_SUM: Optional[_Sum] = None


def _start_worker(job: _Sum) -> None:
    """Ready a forked worker: Ctrl-C interrupts the parent, which stops
    the workers, so a worker ignores it."""
    global _WORKER_SUM
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_SUM = job


def _worker_columns(first: int) -> _Columns:
    return _WORKER_SUM.columns(first)


@contextlib.contextmanager
def _mapped(job: _Sum, threads: int) -> Iterator[Iterator[_Columns]]:
    """``job.columns`` of each of the job's chunks, in canonical order.

    With one worker (``_workers``) they run in this process.  Otherwise
    that many worker processes, forked as the context is entered, so that
    they inherit the job rather than unpickle it, compute them, at most two
    chunks per worker ahead of the caller, so that finished columns do
    not pile up.  A worker's exception is raised here with its type and
    message, and a worker that dies raises :class:`WorkerError`.  On exit
    the workers are stopped and reaped, after the chunks they are
    computing.
    """
    workers = _workers(threads, len(job.firsts))
    if workers == 1:
        yield map(job.columns, job.firsts)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (job,)
    )
    todo = iter(job.firsts)
    try:
        with warnings.catch_warnings():  # the first submit forks every worker
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            window = collections.deque(
                pool.submit(_worker_columns, first) for first in itertools.islice(todo, 2 * workers)
            )

        def ordered() -> Iterator[_Columns]:
            while window:
                done = window.popleft().result()
                window.extend(pool.submit(_worker_columns, f) for f in itertools.islice(todo, 1))
                yield done

        yield ordered()
    except BrokenProcessPool:
        raise WorkerError(
            "a worker process of the pairing sum ended abruptly (killed, perhaps for memory)"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)


def _evaluate(spec: MomentSpec, transitive_only: bool, exact: bool, threads: int) -> MomentResult:
    start = time.perf_counter()
    if threads < 0:
        raise ValueError(f"threads must be 0 (one per CPU) or more, got {threads}")
    shape = spec.shape
    m, r = shape.m, shape.r
    prefactor_exp = -(m // 2) - r
    statistic = "cumulant" if transitive_only else "moment"

    wigner_pos = [k for k, lab in enumerate(shape.labels, start=1) if lab in spec.wigner]
    w = len(wigner_pos)
    _check_budget(m, w)
    # Every term reads all m slots, so this holds whatever the weights; an
    # odd word has no terms and, as in the Wick oracle, a total of 0.
    if exact and m % 2 == 0 and not all(mat.is_exact for mat in spec.matrices):
        raise ValueError("exact mode requires integer or rational matrix entries")

    metadata = {
        "statistic": statistic,
        "mode": "exact" if exact else "float",
        "m": m,
        "r": r,
        "n_dim": spec.n_dim,
        "m_dim": spec.m_dim,
        "wigner_letters": w,
        "spec_hash": spec.fingerprint(),
    }

    # Odd m has no pairings: the sum is empty and the total is 0.
    job = _Sum(spec, wigner_pos, transitive_only, exact)
    # Per chunk, its exact total, or in float mode its float64 values,
    # which one fsum adds.
    terms, sums = [], []
    with _mapped(job, threads) as chunks:
        for columns in chunks:
            terms += job.assemble(columns)
            sums.append(columns.total if exact else columns.values)

    if exact:
        prefactor: Number = Fraction(1, spec.n_dim ** (m // 2 + r))
        total: Number = prefactor * sum(sums)
    else:
        values = itertools.chain.from_iterable(sums)
        total = float(spec.n_dim) ** prefactor_exp * math.fsum(values)

    metadata["elapsed_s"] = time.perf_counter() - start
    return MomentResult(
        total=total,
        prefactor_exponent=prefactor_exp,
        terms=tuple(terms),
        metadata=metadata,
    )


def leading_terms(result: MomentResult) -> tuple[TermReport, ...]:
    """Terms achieving the order bound of the result's statistic: exponent
    0 for moments (all-sphere surfaces), 2 - 2r for cumulants (a connected
    sphere)."""
    meta = result.metadata
    target = 2 - 2 * meta["r"] if meta["statistic"] == "cumulant" else 0
    return tuple(t for t in result.terms if t.order_exponent == target)


def subspec(spec: MomentSpec, factors: Sequence[int]) -> MomentSpec:
    """Restrict a spec to the given 1-based factors (repeats allowed).

    Letter, transpose, label and matrix data for each chosen factor are
    copied in order; dimensions, q and the Gram matrix carry over, and so
    do the Wigner families that occur in the chosen factors.
    """
    ranges = spec.shape.factor_ranges()
    lengths, eps, labels, mats = [], [], [], []
    for f in factors:
        if not 1 <= f <= spec.shape.r:
            raise ValueError(f"factor {f} outside 1..{spec.shape.r}")
        a, b = ranges[f - 1]
        lengths.append(b - a + 1)
        eps.extend(spec.shape.epsilon[a - 1 : b])
        labels.extend(spec.shape.labels[a - 1 : b])
        mats.extend(spec.matrices[a - 1 : b])
    return MomentSpec(
        shape=WordShape(tuple(lengths), tuple(eps), tuple(labels)),
        matrices=mats,
        n_dim=spec.n_dim,
        m_dim=spec.m_dim,
        q=spec.q,
        gram=spec.gram,
        wigner=spec.wigner & set(labels),
    )


@dataclass(frozen=True)
class CltReport:
    """Finite-N fluctuation covariances between the factors of a word.

    ``full[i][j]`` is N^2 times the joint cumulant of factors i and j;
    ``leading[i][j]`` keeps only the terms at the cumulant order bound
    (connected spheres), i.e. the finite-N evaluation of the limit
    covariance.
    """

    full: tuple[tuple[Number, ...], ...]
    leading: tuple[tuple[Number, ...], ...]


def clt_report(spec: MomentSpec, *, exact: bool = False) -> CltReport:
    """Pairwise N^2 * k_2 table over the factors of ``spec``; entry (i, j)
    is the cumulant of the two-factor word ``subspec(spec, [i, j])``."""
    n = spec.shape.r
    full = [[None] * n for _ in range(n)]
    lead = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pair = subspec(spec, [i + 1, j + 1])
            res = cumulant(pair, exact=exact)
            scale = pair.n_dim**2
            full_ij = scale * res.total
            chosen = leading_terms(res)
            if exact:
                prefac: Number = Fraction(1, pair.n_dim ** (-res.prefactor_exponent))
                lead_ij = scale * prefac * sum((t.value for t in chosen), start=Fraction(0))
            else:
                prefac = float(pair.n_dim) ** res.prefactor_exponent
                lead_ij = scale * prefac * math.fsum(t.value for t in chosen)
            full[i][j] = full[j][i] = full_ij
            lead[i][j] = lead[j][i] = lead_ij
    return CltReport(
        full=tuple(tuple(row) for row in full),
        leading=tuple(tuple(row) for row in lead),
    )
