"""The chunked pairing-sum kernel against the per-pairing specification:
``vertex_permutation``, ``particular_cycles``, ``surface_census``,
``is_transitive``, ``crossings``, ``pairing_weight`` and ``trace_along``."""

import itertools
import math
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import wte.engine
from wte.engine import (
    MomentSpec,
    _combinatorics,
    _crossings,
    _cycle_walk,
    _letters,
    _pairing_table,
    _surfaces,
    census_rows,
    cumulant,
    is_transitive,
    moment,
    pairing_weight,
)
from wte.gluing import (
    MirrorPropertyError,
    WordShape,
    particular_cycles,
    slot_dimensions,
    surface_census,
    vertex_permutation,
)
from wte.matrices import Gram, Matrix, trace_along
from wte.perm import crossings, enumerate_pairings, pairing_count

from walks import trace_rows, walk_cycles


def random_shape(rng, m, labels=()):
    """A word of m letters in 1 to 4 factors with random transpose signs."""
    cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(3, m - 1))))
    lengths = tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
    eps = tuple(rng.choice((1, -1)) for _ in range(m))
    return WordShape(lengths, eps, labels)


SHAPES = [
    random_shape(random.Random(100 * m + seed), m)
    for m in (2, 4, 6, 8, 10)
    for seed in range(4 if m < 10 else 3)
]


def fraction_matrices(rng, shape, n_dim, m_dim):
    """Slot matrices with entries k/7, whose float views round."""
    return tuple(
        Matrix([[Fraction(rng.randint(-9, 9), 7) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


def reference_sum(spec, transitive_only=False):
    """The pairing sum one pairing at a time, as the specification reads."""
    shape = spec.shape
    terms = []
    for idx, p in enumerate(enumerate_pairings(shape.m)):
        if transitive_only and not is_transitive(p, shape):
            continue
        parts = particular_cycles(vertex_permutation(p, shape))
        census = surface_census(p, shape)
        weight = pairing_weight(p, spec) * 1.0
        value = weight if weight == 0 else weight * trace_along(parts, spec.matrices)
        terms.append((idx, p.blocks(), weight, parts, census, census.order_exponent, value))
    scale = float(spec.n_dim) ** (-(shape.m // 2) - shape.r)
    return scale * math.fsum(t[-1] for t in terms), terms


SLICES_12 = ((0, 1), (4095, 4097), (5000, 5100), (10394, 10395))


def block_rows(opens, closes):
    """The decoded blocks of each row, as ``Pairing.blocks`` gives them."""
    return [tuple(zip(a, b)) for a, b in zip(opens.tolist(), closes.tolist())]


def as_written(shape):
    """The kernel's sign table of the transpose signs as written: one row,
    whose column k holds letter k's sign."""
    return np.array([(0, *shape.epsilon)], dtype=np.int8)


def as_rows(result):
    return [
        (t.index, t.blocks, t.weight, t.cycles, t.surface, t.order_exponent, t.value)
        for t in result.terms
    ]


class TestPairingTable:
    @pytest.mark.parametrize("m", [0, 2, 4, 6, 8, 10])
    def test_whole_table_is_canonical_order(self, m):
        table = _pairing_table(m, 0, pairing_count(m))[0].tolist()
        assert [tuple(row) for row in table] == [p.partner for p in enumerate_pairings(m)]

    def test_slices_decode_their_own_indices(self):
        every = [p.partner for p in enumerate_pairings(12)]
        for start, stop in SLICES_12:
            table = _pairing_table(12, start, stop)[0].tolist()
            assert [tuple(row) for row in table] == every[start:stop]

    @pytest.mark.parametrize("m", [0, 2, 4, 6, 8, 10])
    def test_whole_table_blocks(self, m):
        _, opens, closes = _pairing_table(m, 0, pairing_count(m))
        assert block_rows(opens, closes) == [p.blocks() for p in enumerate_pairings(m)]

    def test_slices_decode_their_own_blocks(self):
        every = [p.blocks() for p in enumerate_pairings(12)]
        for start, stop in SLICES_12:
            _, opens, closes = _pairing_table(12, start, stop)
            assert block_rows(opens, closes) == every[start:stop]


class TestKernelMatchesSpecification:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_every_pairing(self, shape):
        partner, opens, closes = _pairing_table(shape.m, 0, pairing_count(shape.m))
        plan = _combinatorics(shape.lengths)
        gluing = plan.glue(partner, as_written(shape))
        cross = _crossings(opens, closes).tolist()
        walked = iter(_letters(_cycle_walk(gluing.img, gluing.particular), plan.signed))
        surfaces = _surfaces(shape.lengths, gluing.keys, gluing.kind)
        # The cumulant's rule: connected iff every factor's component label is 0.
        connected = (gluing.keys[gluing.kind, : shape.r] == 0).all(axis=1)
        for i, p in enumerate(enumerate_pairings(shape.m)):
            parts = particular_cycles(vertex_permutation(p, shape))
            census = surface_census(p, shape)
            assert tuple(itertools.islice(walked, int(gluing.particular[i].sum()))) == parts
            # Per component: factors, vertices, edges, faces, orientability
            # (so chi); and the order exponent.
            assert surfaces[i] == census
            assert surfaces[i].vertex_count == len(parts)
            assert surfaces[i].connected == connected[i] == is_transitive(p, shape)
            assert cross[i] == crossings(p)
        assert next(walked, None) is None

    @pytest.mark.parametrize("shape", SHAPES[::3], ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_census_rows(self, shape):
        rows = list(census_rows(shape))
        assert len(rows) == pairing_count(shape.m)
        for (idx, blocks, census, cross), p in zip(rows, enumerate_pairings(shape.m)):
            assert blocks == p.blocks()
            assert census == surface_census(p, shape)
            assert cross == crossings(p)
        assert [row[0] for row in rows] == list(range(len(rows)))

    @pytest.mark.parametrize("statistic", [moment, cumulant], ids=["moment", "cumulant"])
    def test_wigner_sign_assignments_across_chunk_seams(self, monkeypatch, statistic):
        # Three Wigner letters in two factors and 16 terms per chunk: two
        # pairing rows per chunk, each glued under all eight sign
        # assignments.
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 16)
        rng = random.Random(7)
        eps = tuple(rng.choice((1, -1)) for _ in range(8))
        base = WordShape((4, 4), eps, ("X", "Z", "X", "Z", "X", "X", "Z", "X"))
        n = 2
        spec = MomentSpec(
            base, fraction_matrices(rng, base, n, n), n, n, wigner=frozenset({"Z"})
        )
        res = statistic(spec)
        pairings = list(enumerate_pairings(8))
        # The cumulant keeps exactly the pairings that connect both factors,
        # each under all eight assignments in product order.
        kept = [i for i, p in enumerate(pairings) if statistic is moment or is_transitive(p, base)]
        if statistic is cumulant:
            assert 0 < len(kept) < len(pairings)
        wigner_pos = (2, 4, 7)
        assignments = list(itertools.product((1, -1), repeat=3))
        assert [(t.index, tuple(t.epsilon[k - 1] for k in wigner_pos)) for t in res.terms] == [
            (i, a) for i in kept for a in assignments
        ]
        for t in res.terms:
            p = pairings[t.index]
            assert all(t.epsilon[k - 1] == eps[k - 1] for k in range(1, 9) if k not in wigner_pos)
            shape = WordShape(base.lengths, t.epsilon, base.labels)
            parts = particular_cycles(vertex_permutation(p, shape))
            assert t.blocks == p.blocks()
            assert t.cycles == parts
            assert t.surface == surface_census(p, shape)
            expected = pairing_weight(p, spec) * 0.5**3
            assert t.weight == expected
            if expected:
                assert t.value == expected * trace_along(parts, spec.matrices)

    def test_one_plan_for_every_sign_assignment(self):
        # The sign assignments are rows of one table: a word with three
        # Wigner letters compiles one plan, not one per assignment.
        shape = WordShape((2, 4), (1, -1, 1, 1, -1, -1), ("Z", "X", "Z", "Z", "X", "X"))
        spec = MomentSpec(shape, fraction_matrices(random.Random(18), shape, 2, 2), 2, 2,
                          wigner=frozenset({"Z"}))
        _combinatorics.cache_clear()
        res = moment(spec)
        assert len({t.epsilon for t in res.terms}) == 8
        assert _combinatorics.cache_info()[:2] == (0, 1)  # (hits, misses)
        moment(spec)
        assert _combinatorics.cache_info()[:2] == (1, 1)

    def test_one_plan_for_words_that_differ_in_signs_and_labels(self):
        # The plan reads only the factor lengths: three one-factor words of
        # length 4 with different transpose signs and labels share it.
        rng = random.Random(19)
        shapes = [
            WordShape((4,), (-1, 1, -1, 1)),
            WordShape((4,), (1, 1, -1, -1)),
            WordShape((4,), (1, -1, -1, 1), ("X", "Y", "Y", "X")),
        ]
        _combinatorics.cache_clear()
        for shape in shapes:
            spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3)
            total, terms = reference_sum(spec, transitive_only=False)
            res = moment(spec)
            assert repr(res.total) == repr(total)
            assert as_rows(res) == terms
        assert _combinatorics.cache_info()[:2] == (2, 1)  # (hits, misses)

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        rng = random.Random(3)
        shape = random_shape(rng, 8)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3)
        whole = moment(spec)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 7)
        chunked = moment(spec)
        assert repr(chunked.total) == repr(whole.total)
        assert as_rows(chunked) == as_rows(whole)

    def test_cumulant_chunks_that_keep_no_pairing(self, monkeypatch):
        # One pairing per chunk: the chunks of disconnecting pairings keep
        # no term at all.
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 1)
        rng = random.Random(8)
        shape = WordShape((2, 2, 2), (1, -1, -1, 1, 1, -1))
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3)
        total, terms = reference_sum(spec, transitive_only=True)
        res = cumulant(spec)
        assert 0 < len(res.terms) < pairing_count(6)
        assert repr(res.total) == repr(total)
        assert as_rows(res) == terms

    def test_census_across_chunk_seams(self, monkeypatch):
        # 105 pairings in chunks of 7: every seam falls inside the census.
        shape = random_shape(random.Random(5), 8)
        whole = list(census_rows(shape))
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 7)
        assert list(census_rows(shape)) == whole

    @pytest.mark.parametrize(
        "row, message",
        [((1, 1, 1, 1), "cycle count"), ((1, 1, 4, 1), "no mirror partner")],
    )
    def test_rows_that_are_not_pairings_fail_the_mirror_checks(self, row, message):
        shape = WordShape.alternating((4,))
        plan = _combinatorics(shape.lengths)
        good = _pairing_table(4, 0, pairing_count(4))[0]
        plan.glue(good, as_written(shape))
        with pytest.raises(MirrorPropertyError, match=message):
            plan.glue(np.vstack([good, row]), as_written(shape))


class TestMomentMatchesReferenceSum:
    """Float totals and term values, bit for bit, at m = 10."""

    CASES = {
        "one-factor": (WordShape((10,), (1, -1, -1, 1, 1, 1, -1, 1, -1, -1)), {}),
        "three-factors": (WordShape((4, 2, 4), (-1, 1, 1, 1, -1, 1, -1, -1, 1, 1)), {}),
        "gram-q-half": (
            WordShape.alternating((6, 4), ("X", "Y", "X", "X", "Y", "X", "Y", "Y", "X", "X")),
            {
                "q": Fraction(1, 2),
                "gram": Gram(("X", "Y"), ((1, Fraction(1, 2)), (Fraction(1, 2), 1))),
            },
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_moment(self, case):
        shape, kw = self.CASES[case]
        rng = random.Random(case)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 3, 2), 3, 2, **kw)
        total, terms = reference_sum(spec)
        res = moment(spec)
        assert repr(res.total) == repr(total)
        assert as_rows(res) == terms
        assert [repr(t.value) for t in res.terms] == [repr(t[-1]) for t in terms]

    def test_cumulant(self):
        shape, kw = self.CASES["three-factors"]
        rng = random.Random(11)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3, **kw)
        total, terms = reference_sum(spec, transitive_only=True)
        res = cumulant(spec)
        assert repr(res.total) == repr(total)
        assert as_rows(res) == terms


def float_matrices(rng, shape, n_dim, m_dim):
    """Slot matrices with full-precision float entries."""
    return tuple(
        Matrix([[rng.uniform(-1, 1) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


@pytest.fixture
def traced(monkeypatch):
    """Every (cycles, traces, exact) batch the engine traces."""
    calls = []
    real = wte.engine._trace_walk

    def spy(walk, mats, exact):
        out = real(walk, mats, exact)
        calls.append((walk_cycles(walk, len(mats)), out, exact))
        return out

    monkeypatch.setattr(wte.engine, "_trace_walk", spy)
    return calls


def assert_traces_match_trace_along(calls, res, mats):
    """No cycle is traced twice in one call (one call per chunk), each
    with ``trace_along``'s bits (float) or value and type (exact), and
    exactly the cycles of nonzero-weight terms are traced."""
    seen = set()
    for cycles, out, exact in calls:
        assert len(set(cycles)) == len(cycles)
        for cyc, value in zip(cycles, out):
            seen.add(cyc)
            want = trace_along((cyc,), mats, exact)
            if exact:
                assert value == want and type(value) is type(want)
            else:
                assert repr(value) == repr(want)
    assert seen == {c for t in res.terms if t.weight != 0 for c in t.cycles}
    return seen


def by_chunk(terms, w=0):
    """The terms grouped by the kernel chunk that made them: chunks of
    ``_CHUNK_TERMS >> w`` pairings for w Wigner letters."""
    rows = max(1, wte.engine._CHUNK_TERMS >> w)
    return [list(g) for _, g in itertools.groupby(terms, key=lambda t: t.index // rows)]


class TestBatchedTraces:
    """The batched trace stage against ``trace_along``, for every distinct
    cycle the engine traces."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_every_distinct_cycle(self, traced, shape, exact):
        # N != M, so slots are rectangular; entries k/7 round as floats.
        rng = random.Random(repr(shape))
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 3, 2), 3, 2)
        res = moment(spec, exact=exact)
        assert_traces_match_trace_along(traced, res, spec.matrices)

    def test_wigner_sign_assignments(self, traced):
        rng = random.Random(12)
        base = random_shape(rng, 8, labels=("X", "Z", "X", "Z", "Z", "X", "X", "X"))
        spec = MomentSpec(
            base, float_matrices(rng, base, 3, 3), 3, 3, wigner=frozenset({"Z"})
        )
        res = moment(spec)
        assert len({t.epsilon for t in res.terms}) == 8
        assert_traces_match_trace_along(traced, res, spec.matrices)

    def test_weight_zero_terms_are_not_traced(self, traced):
        rng = random.Random(13)
        shape = random_shape(rng, 10)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3, q=0)
        res = moment(spec)
        seen = assert_traces_match_trace_along(traced, res, spec.matrices)
        zero = {c for t in res.terms if t.weight == 0 for c in t.cycles}
        assert zero - seen
        assert all(t.value == 0 for t in res.terms if t.weight == 0)

    def test_chunk_seams(self, traced, monkeypatch):
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 7)
        rng = random.Random(14)
        shape = random_shape(rng, 10)
        spec = MomentSpec(shape, float_matrices(rng, shape, 2, 3), 2, 3)
        t0 = time.perf_counter()
        res = moment(spec)
        assert 0 <= res.metadata["elapsed_s"] <= time.perf_counter() - t0
        assert len(traced) > 1
        assert_traces_match_trace_along(traced, res, spec.matrices)
        # Each chunk traces exactly its own terms' cycles, including those
        # an earlier chunk traced too.
        chunks = by_chunk(res.terms)
        assert len(traced) == len(chunks)
        for (cycles, _, _), chunk in zip(traced, chunks):
            assert set(cycles) == {c for t in chunk if t.weight != 0 for c in t.cycles}
        total, terms = reference_sum(spec)
        assert repr(res.total) == repr(total)
        assert [repr(t.value) for t in res.terms] == [repr(t[-1]) for t in terms]

    def test_aliased_slot(self, traced):
        # One Matrix in slots 1 and 3 (X' D1 X D2 X' D3 ...): a cycle that
        # starts (1, -3) multiplies a @ a.T in trace_along, which numpy
        # may hand to syrk rather than gemm.
        rng = random.Random(15)
        shape = WordShape.alternating((8,))
        mats = list(float_matrices(rng, shape, 3, 3))
        mats[2] = mats[0]
        spec = MomentSpec(shape, mats, 3, 3)
        res = moment(spec)
        seen = assert_traces_match_trace_along(traced, res, spec.matrices)
        assert any(
            len(c) > 1 and mats[abs(c[0]) - 1] is mats[abs(c[1]) - 1] and c[0] * c[1] < 0
            for c in seen
        )

    def test_aliased_slots_directly(self):
        # Every slot holds one square matrix: every cycle of two or more
        # slots starts with an aliased pair.
        rng = random.Random(16)
        mat = Matrix([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
        mats = (mat,) * 6
        cycles = []
        for _ in range(400):
            slots = rng.sample(range(1, 7), rng.randint(1, 6))
            cycles.append(tuple(k * rng.choice((1, -1)) for k in slots))
        got = trace_rows(cycles, mats)
        assert [repr(x) for x in got] == [repr(trace_along((c,), mats)) for c in cycles]


class TestSharedCycles:
    def test_equal_cycles_are_one_object(self):
        rng = random.Random(17)
        shape = random_shape(rng, 10, labels=("X", "Z") * 5)
        spec = MomentSpec(
            shape, fraction_matrices(rng, shape, 2, 2), 2, 2, wigner=frozenset({"Z"})
        )
        res = moment(spec)
        chunks = by_chunk(res.terms, w=shape.labels.count("Z"))
        assert len(chunks) > 1
        for chunk in chunks:
            first = {}
            for t in chunk:
                for c in t.cycles:
                    assert first.setdefault(c, c) is c
        # The letters are the plan's int objects, not ints read back from
        # an array, which would be new objects for |x| > 5.
        assert len({id(x) for t in res.terms for c in t.cycles for x in c}) <= 2 * shape.m


def int_matrices(rng, shape, n_dim, m_dim):
    """Slot matrices with small int entries, which exact mode traces in int64."""
    return tuple(
        Matrix([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


class TestSkeletonMemo:
    """The N-independent half of a chunk (``_Skeleton``) is memoised across
    calls for sums of fewer than ``_SHARD_CHUNKS`` chunks, with the same
    terms and bits as a fresh evaluation."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_sweep_matches_fresh_calls(self, shape, exact):
        rng = random.Random(repr(shape))
        make = int_matrices if exact else float_matrices
        calls = [
            (fn, MomentSpec(shape, make(rng, shape, n, n - 1), n, n - 1))
            for n in (3, 5)
            for fn in (moment, cumulant, moment)
        ]
        reused = [fn(spec, exact=exact) for fn, spec in calls]
        info = wte.engine._skeleton.cache_info()
        assert info.hits and info.currsize
        fresh = []
        for fn, spec in calls:
            wte.engine._skeleton.cache_clear()
            fresh.append(fn(spec, exact=exact))
        for a, b in zip(reused, fresh):
            if exact:
                assert a.total == b.total and type(a.total) is type(b.total)
            else:
                assert a.total.hex() == b.total.hex()
                assert [t.value.hex() for t in a.terms] == [t.value.hex() for t in b.terms]
            assert a.terms == b.terms

    def test_one_entry_per_lengths_and_signs(self):
        rng = random.Random(20)
        eps = (-1, 1, -1, 1, 1, -1)
        plain = WordShape((4, 2), eps)
        labelled = WordShape((4, 2), eps, ("X", "Y", "X", "Y", "Y", "X"))
        gram = Gram(("X", "Y"), ((1, Fraction(1, 3)), (Fraction(1, 3), 2)))
        for shape, kw in [(plain, {}), (plain, {"q": Fraction(1, 2)}),
                          (labelled, {}), (labelled, {"gram": gram})]:
            moment(MomentSpec(shape, fraction_matrices(rng, shape, 3, 3), 3, 3, **kw))
            cumulant(MomentSpec(shape, fraction_matrices(rng, shape, 2, 2), 2, 2, **kw))
            assert wte.engine._skeleton.cache_info().currsize == 1
        # Other transpose signs, and a Wigner family (four sign rows), are
        # other skeletons.
        flipped = WordShape((4, 2), (1, 1, -1, 1, 1, -1))
        moment(MomentSpec(flipped, fraction_matrices(rng, flipped, 3, 3), 3, 3))
        assert wte.engine._skeleton.cache_info().currsize == 2
        moment(MomentSpec(labelled, fraction_matrices(rng, labelled, 3, 3), 3, 3,
                          wigner=frozenset({"Y"})))
        assert wte.engine._skeleton.cache_info().currsize == 3
        # The census reads no cycles and builds no skeleton: it neither
        # adds an entry nor reads one.
        info = wte.engine._skeleton.cache_info()
        assert len(list(census_rows(plain))) == pairing_count(6)
        assert wte.engine._skeleton.cache_info() == info

    @pytest.mark.parametrize("rows, chunks", [(15, 7), (14, 8), (13, 9)])
    def test_only_sums_of_few_chunks_enter(self, monkeypatch, rows, chunks):
        # 105 pairings in chunks of 15, 14 and 13: 7 chunks enter the memo,
        # 8 and 9 (as many as _SHARD_CHUNKS, or more) never do, also in one
        # process.
        assert wte.engine._SHARD_CHUNKS == 8
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", rows)
        rng = random.Random(21)
        shape = random_shape(rng, 8)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3)
        want = as_rows(moment(spec, threads=1))
        assert as_rows(cumulant(spec, threads=1)) == as_rows(cumulant(spec, threads=1))
        list(census_rows(shape))
        assert wte.engine._skeleton.cache_info().currsize == (chunks if chunks < 8 else 0)
        assert as_rows(moment(spec, threads=1)) == want

    def test_entry_bound_evicts_the_least_recently_used(self):
        info = wte.engine._skeleton.cache_info
        assert info().maxsize == 2 * (wte.engine._SHARD_CHUNKS - 1) == 14
        # Fifteen words of one 105-row chunk each, which differ in their
        # transpose signs, under a bound of fourteen.
        rng = random.Random(22)
        specs = []
        for eps in itertools.islice(itertools.product((1, -1), repeat=8), 15):
            shape = WordShape((8,), eps)
            specs.append(MomentSpec(shape, fraction_matrices(rng, shape, 2, 2), 2, 2))
        want = [as_rows(moment(spec)) for spec in specs[:14]]
        assert info()[:2] == (0, 14)  # (hits, misses)
        assert as_rows(moment(specs[0])) == want[0]  # now the most recently used
        assert info()[:2] == (1, 14)
        moment(specs[14])  # the least recently used, word 1, goes
        assert info()[:2] == (1, 15) and info().currsize == 14
        assert as_rows(moment(specs[0])) == want[0]
        assert info()[:2] == (2, 15)
        assert as_rows(moment(specs[1])) == want[1]
        assert info()[:2] == (2, 16)

    def test_memoised_arrays_are_read_only(self):
        rng = random.Random(23)
        shape = random_shape(rng, 10)
        cumulant(MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3))
        plan = _combinatorics(shape.lengths)
        signs, rows = as_written(shape).tobytes(), wte.engine._CHUNK_TERMS
        skeleton = wte.engine._skeleton(plan, signs, 0, rows)
        assert wte.engine._skeleton.cache_info()[:2] == (1, 1)  # the memoised one
        arrays = [a for a in vars(skeleton).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 9
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_two_threads_share_one_shape(self, exact):
        rng = random.Random(24)
        shape = WordShape((6, 4), tuple(rng.choice((1, -1)) for _ in range(10)))
        make = int_matrices if exact else float_matrices
        specs = [MomentSpec(shape, make(rng, shape, n, n), n, n) for n in (2, 3)]
        want = [as_rows(fn(spec, exact=exact)) for spec in specs for fn in (moment, cumulant)]
        got, errors = [[], []], []
        start = threading.Barrier(2)

        def run(out):
            try:
                start.wait()
                for _ in range(3):
                    wte.engine._skeleton.cache_clear()
                    out.append([as_rows(fn(spec, exact=exact))
                                for spec in specs for fn in (moment, cumulant)])
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(out,)) for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert got[0] == got[1] == [want] * 3
