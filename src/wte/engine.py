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

Evaluation is one sequential pass over the pairings in canonical order,
refused up front with :class:`BudgetError` when its work, (m-1)!! * m *
2^w for w Wigner letters, exceeds the budget it shares with the Wick
oracle (``WTE_BUDGET``).
Each pairing's particular cycles and surface census come from
``_combinatorics``; a cumulant keeps a pairing when that census has a
single component.  Float evaluation reduces the term values with
error-free summation in canonical pairing order, so the same
configuration gives the same bits on every run; exact mode keeps
everything in integers and rationals.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .gluing import (
    SurfaceReport,
    WordShape,
    front_rotation,
    particular_cycles,
    slot_dimensions,
    surface_census,
    vertex_permutation,
)
from .matrices import DimensionError, Gram, MatrixSet, trace_along
from .perm import Pairing, crossings, enumerate_pairings, orbits, pairing_count

Number = Union[int, float, Fraction]

DEFAULT_BUDGET = 100_000_000
BUDGET_ENV_VAR = "WTE_BUDGET"


class BudgetError(RuntimeError):
    """The requested evaluation exceeds the work budget."""


def _budget_limit(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


def _check_budget(m: int, w: int = 0) -> None:
    """Refuse a pairing sum over m letters with w Wigner letters whose
    work, (m-1)!! pairings times m letters times 2^w sign assignments,
    exceeds the budget: ``WTE_BUDGET`` or :data:`DEFAULT_BUDGET`."""
    work = pairing_count(m) * max(m, 1) * 2**w
    limit = _budget_limit(None)
    if work > limit:
        raise BudgetError(
            f"pairing sum needs ~{work} operations, budget is {limit} "
            f"(set {BUDGET_ENV_VAR} to raise it)"
        )


@dataclass(frozen=True)
class MomentSpec:
    """A fully bound trace-word problem ready for evaluation.

    X-type letters are m_dim x n_dim; traces are always normalized by
    n_dim.  ``wigner`` names the families averaged over both transpose
    signs (square case only).  The default Gram makes distinct families
    independent with unit norm, which for a single family is the plain
    single-matrix model.
    """

    shape: WordShape
    matrices: MatrixSet
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
        if self.matrices.count != self.shape.m:
            raise ValueError(
                f"word has {self.shape.m} slots, matrix set has {self.matrices.count}"
            )
        profile = slot_dimensions(self.shape, self.n_dim, self.m_dim)
        for k, want in enumerate(profile, start=1):
            got = self.matrices.dims(k)
            if got != want:
                raise DimensionError(
                    f"slot {k} expected {want[0]}x{want[1]}, got {got[0]}x{got[1]}"
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
        for mat in self.matrices.matrices:
            parts.append(repr(tuple(tuple(str(x) for x in row) for row in mat.entries)))
        h.update("|".join(parts).encode())
        return h.hexdigest()


@dataclass(frozen=True)
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
    q = _as_number(spec.q, exact)
    weight = q ** crossings(p)
    labels = spec.shape.labels
    for a, b in p.blocks():
        weight *= _as_number(spec.gram.value(labels[a - 1], labels[b - 1]), exact)
    return weight


def _as_number(x: Number, exact: bool) -> Number:
    if exact:
        return x if isinstance(x, (int, Fraction)) else Fraction(x)
    return float(x)


def moment(spec: MomentSpec, *, exact: bool = False) -> MomentResult:
    """Expected value of the product of the word's normalized trace factors.

    Odd letter counts give exactly 0 with an empty term list.  Wigner
    families are averaged over both transpose signs per occurrence.
    """
    return _evaluate(spec, transitive_only=False, exact=exact)


def cumulant(spec: MomentSpec, *, exact: bool = False) -> MomentResult:
    """Joint cumulant of the word's factors: the pairing sum restricted to
    pairings connecting all factors, with the same global prefactor.

    A pairing connects all factors when its glued surface has a single
    component; the empty word counts as connected.
    """
    return _evaluate(spec, transitive_only=True, exact=exact)


def is_transitive(p: Pairing, shape: WordShape) -> bool:
    """True when the pairing connects all factors: the factor rotation and
    the pairing together have a single orbit on the letters.

    The engine reads this off ``surface_census``; tests use this function
    as the independent reference."""
    if shape.m == 0:
        return shape.r <= 1
    return len(orbits([front_rotation(shape), p], tuple(range(1, shape.m + 1)))) == 1


@lru_cache(maxsize=65536)
def _combinatorics(p: Pairing, shape: WordShape):
    """Particular cycles and census for one pairing; independent of the
    matrices and dimensions, so worth caching across evaluations."""
    parts = particular_cycles(vertex_permutation(p, shape))
    return parts, surface_census(p, shape, particular=parts)


def _evaluate(spec: MomentSpec, transitive_only: bool, exact: bool) -> MomentResult:
    start = time.perf_counter()
    shape = spec.shape
    m, r = shape.m, shape.r
    prefactor_exp = -(m // 2) - r
    statistic = "cumulant" if transitive_only else "moment"

    wigner_pos = tuple(
        k for k, lab in enumerate(shape.labels, start=1) if lab in spec.wigner
    )
    w = len(wigner_pos)
    _check_budget(m, w)

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

    assignments = list(itertools.product((1, -1), repeat=w))
    share: Number = Fraction(1, 2**w) if exact else 0.5**w

    def shape_with(assign: tuple[int, ...]) -> WordShape:
        if not w:
            return shape
        eps = list(shape.epsilon)
        for pos, sign in zip(wigner_pos, assign):
            eps[pos - 1] = sign
        return WordShape(shape.lengths, tuple(eps), shape.labels)

    shapes = [shape_with(a) for a in assignments]
    # Odd m has no pairings: the sum is empty and the total is 0.
    terms = []
    for idx, p in enumerate(enumerate_pairings(m)):
        gluings = [_combinatorics(p, shape_a) for shape_a in shapes]
        # The components of the letters do not depend on the transpose
        # signs, so any sign assignment's census decides transitivity; the
        # empty word has no components and counts as connected.
        if transitive_only and m and not gluings[0][1].connected:
            continue
        weight = pairing_weight(p, spec, exact) * share
        for shape_a, (parts, census) in zip(shapes, gluings):
            if weight == 0:
                value: Number = weight
            else:
                value = weight * trace_along(parts, spec.matrices, exact)
            terms.append(
                TermReport(
                    index=idx,
                    blocks=p.blocks(),
                    weight=weight,
                    cycles=parts,
                    surface=census,
                    order_exponent=census.order_exponent,
                    value=value,
                    epsilon=shape_a.epsilon if w else None,
                )
            )

    if exact:
        prefactor: Number = Fraction(1, spec.n_dim ** (m // 2 + r))
        total: Number = prefactor * sum(t.value for t in terms)
    else:
        total = float(spec.n_dim) ** prefactor_exp * math.fsum(t.value for t in terms)

    metadata["elapsed_s"] = time.perf_counter() - start
    return MomentResult(
        total=total,
        prefactor_exponent=prefactor_exp,
        terms=tuple(terms),
        metadata=metadata,
    )


def leading_terms(result: MomentResult, mode: str) -> tuple[TermReport, ...]:
    """Terms achieving the order bound: exponent 0 for moments (all-sphere
    surfaces), 2 - 2r for cumulants (a connected sphere)."""
    r = result.metadata["r"]
    if mode == "moment":
        target = 0
    elif mode == "cumulant":
        target = 2 - 2 * r
    else:
        raise ValueError(f"mode must be 'moment' or 'cumulant', got {mode!r}")
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
        mats.extend(spec.matrices.matrices[a - 1 : b])
    return MomentSpec(
        shape=WordShape(tuple(lengths), tuple(eps), tuple(labels)),
        matrices=MatrixSet(mats),
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
            chosen = leading_terms(res, "cumulant")
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
