"""The benchmark's words, inputs and operations.

Every input is a dense integer matrix with entries in [-3, 3], drawn
from a generator keyed only by the benchmark seed and the instance name,
so the same seed always gives the same inputs.  ``WORKLOADS`` lists, per
workload, the operations one pass runs, in order.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from reference import Problem

DEFAULT_SEED = 1
ENTRY_RANGE = (-3, 3)
MC_SAMPLES = 100_000
MC_SEED = 7  # fixed Monte Carlo seed; the inputs still vary with --seed
MC_CHUNK = 16384  # samples per draw in mc_oracle, for the computed chunk size
MC_SIGMA = 5.0
FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class Word:
    """A trace word: per factor, its letters (``"X'"`` is a transposed X)."""

    name: str
    factors: tuple[tuple[str, ...], ...]
    q: Fraction = Fraction(1)
    gram: tuple[tuple[str, str, Fraction], ...] = ()
    wigner: frozenset = frozenset()

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(x for f in self.factors for x in f)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    @property
    def eps(self) -> tuple[int, ...]:
        return tuple(-1 if x.endswith("'") else 1 for x in self.letters)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(x.rstrip("'") for x in self.letters)

    @property
    def m(self) -> int:
        return len(self.letters)

    def expr(self, statistic: str) -> str:
        head = "E[" if statistic == "moment" else "k["
        parts, k = [], 0
        for factor in self.factors:
            inner = []
            for x in factor:
                k += 1
                inner.append(f"{x} D{k}")
            parts.append(f"tr({' '.join(inner)})")
        return f"{head} {' '.join(parts)} ]"

    def slot_dims(self, n_dim: int, m_dim: int) -> list[tuple[int, int]]:
        """(rows, cols) of each slot: X is m_dim x n_dim, so a slot after a
        plain letter has n_dim rows and one before a plain letter m_dim cols."""
        eps, dims, start = self.eps, [], 0
        for length in self.lengths:
            for i in range(length):
                k, nxt = start + i, start + (i + 1) % length
                dims.append((n_dim if eps[k] == 1 else m_dim, m_dim if eps[nxt] == 1 else n_dim))
            start += length
        return dims


def alternating(name: str, lengths: tuple[int, ...], families: str = "X", **kw) -> Word:
    """Factors ``X' D X D ...``; ``families`` gives each letter's family in turn."""
    factors, k = [], 0
    for length in lengths:
        letters = []
        for i in range(length):
            fam = families[k % len(families)]
            letters.append(fam + ("'" if i % 2 == 0 else ""))
            k += 1
        factors.append(tuple(letters))
    return Word(name, tuple(factors), **kw)


@dataclass(frozen=True)
class Instance:
    """A word bound to dimensions and seeded matrices."""

    word: Word
    n_dim: int
    m_dim: int
    mats: tuple[np.ndarray, ...]

    @property
    def key(self) -> str:
        return f"{self.word.name}@N{self.n_dim}M{self.m_dim}"

    @classmethod
    def generate(cls, word: Word, n_dim: int, m_dim: int, seed: int) -> "Instance":
        name = f"{word.name}@N{n_dim}M{m_dim}"
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        lo, hi = ENTRY_RANGE
        mats = tuple(
            rng.integers(lo, hi + 1, size=dims, dtype=np.int64)
            for dims in word.slot_dims(n_dim, m_dim)
        )
        return cls(word, n_dim, m_dim, mats)

    def matrix_text(self, k: int) -> str:
        a = self.mats[k]
        rows = "\n".join(" ".join(str(int(x)) for x in row) for row in a)
        return f"{a.shape[0]} {a.shape[1]}\n{rows}\n"

    def sha256(self) -> str:
        h = hashlib.sha256()
        w = self.word
        h.update(
            repr((w.factors, str(w.q), [(a, b, str(g)) for a, b, g in w.gram],
                  sorted(w.wigner), self.n_dim, self.m_dim)).encode()
        )
        for k in range(len(self.mats)):
            h.update(self.matrix_text(k).encode())
        return h.hexdigest()

    def problem(self, statistic: str) -> Problem:
        w = self.word
        return Problem(
            lengths=w.lengths, eps=w.eps, labels=w.labels, n_dim=self.n_dim,
            m_dim=self.m_dim, mats=self.mats, q=w.q, gram=w.gram,
            wigner=w.wigner, cumulant=statistic == "cumulant",
        )

    def job(self) -> dict:
        """Plain-data form sent to a worker process."""
        w = self.word
        return {
            "key": self.key,
            "expr": self.word.expr("moment"),
            "n_dim": self.n_dim,
            "m_dim": self.m_dim,
            "factors": [list(f) for f in w.factors],
            "q": str(w.q),
            "gram": [[a, b, str(g)] for a, b, g in w.gram],
            "wigner": sorted(w.wigner),
            "mats": [a.tolist() for a in self.mats],
        }


@dataclass(frozen=True)
class Op:
    """One timed operation: ``kind`` is moment, cumulant, wick or mc.

    ``wick`` and ``mc`` also evaluate the engine's exact moment, which the
    oracle result is checked against.
    """

    kind: str
    inst: Instance

    @property
    def statistic(self) -> str:
        return "cumulant" if self.kind == "cumulant" else "moment"

    @property
    def ref_key(self) -> str:
        return f"{self.statistic}:{self.inst.key}"

    def wick_assignments(self) -> int:
        """(m-1)!! (NM)^(m/2) 2^w: index assignments the Wick oracle visits."""
        w = self.inst.word
        m = w.m
        wig = sum(1 for lab in w.labels if lab in w.wigner)
        return (math.prod(range(m - 1, 0, -2)) * (self.inst.n_dim * self.inst.m_dim) ** (m // 2)
                * 2**wig)

    def mc_chunk_bytes(self) -> int:
        """Bytes of one raw Monte Carlo draw: a chunk of samples of every family."""
        fams = len(set(self.inst.word.labels))
        return MC_CHUNK * fams * self.inst.m_dim * self.inst.n_dim * 8


ALT14 = alternating("alt14", (14,))
ALT12 = alternating("alt12", (12,))
ALT66 = alternating("alt6x6", (6, 6))
Q10 = alternating("q10", (10,), q=Fraction(1, 2))
GRAM10 = alternating("gram10", (10,), families="XXY", gram=(("X", "Y", Fraction(1, 2)),))
WIG10 = Word(
    "wig10",
    (("X'", "X", "Z", "X'", "X", "X'", "X", "Z", "X'", "X"),),
    wigner=frozenset({"Z"}),
)
ALT8 = alternating("alt8", (8,))
ALT6 = alternating("alt6", (6,))
ALT44 = alternating("alt4x4", (4, 4))

SWEEP_N = (3, 5)
COLD_DIMS = (6, 5)


def cold_ops(seed: int) -> list[Op]:
    return [Op("moment", Instance.generate(ALT14, *COLD_DIMS, seed))]


def sweep_ops(seed: int) -> list[Op]:
    ops = []
    for n in SWEEP_N:
        ops.append(Op("moment", Instance.generate(ALT12, n, n - 1, seed)))
        pair = Instance.generate(ALT66, n, n - 1, seed)
        ops.append(Op("moment", pair))
        ops.append(Op("cumulant", pair))
        ops.append(Op("moment", Instance.generate(Q10, n, n - 1, seed)))
        ops.append(Op("moment", Instance.generate(GRAM10, n, n - 1, seed)))
        ops.append(Op("moment", Instance.generate(WIG10, n, n, seed)))
    return ops


def verify_ops(seed: int) -> list[Op]:
    return [
        Op("wick", Instance.generate(ALT8, 3, 3, seed)),
        Op("wick", Instance.generate(ALT6, 5, 5, seed)),
        Op("wick", Instance.generate(ALT44, 3, 2, seed)),
        Op("mc", Instance.generate(ALT8, 32, 32, seed)),
        Op("mc", Instance.generate(ALT44, 16, 16, seed)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int], list[Op]]
    cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-m14",
            "the (m-1)!! wall: one 135,135-pairing float CLI call in a fresh process, "
            "dominated by per-pairing gluing and perm work and stored TermReports",
            cold_ops,
            cli=True,
        ),
        Workload(
            "exact-sweep",
            "exact library calls over five words at N=3,5 in one process: exact cycle "
            "traces plus per-shape gluing reuse across N; q, Gram, Wigner, cumulant paths",
            sweep_ops,
            cli=False,
        ),
        Workload(
            "verify",
            "Wick and Monte Carlo oracles checked against the engine's exact moment: "
            "oracle work dominates, MC chunk drives peak RSS",
            verify_ops,
            cli=False,
        ),
    )
}


def distinct_instances(ops: list[Op]) -> list[Instance]:
    seen: dict[str, Instance] = {}
    for op in ops:
        seen.setdefault(op.inst.key, op.inst)
    return list(seen.values())


def within_float_tol(value: float, ref: Fraction) -> bool:
    return abs(Fraction(value) - ref) <= FLOAT_TOL * max(abs(ref), 1)


def mc_ok(estimate: float, stderr: float, exact: Fraction) -> bool:
    return abs(estimate - float(exact)) <= MC_SIGMA * stderr
