import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import wte.oracles
from wte.engine import BudgetError, Gram, MomentSpec, cumulant, moment
from wte.gluing import WordShape, slot_dimensions
from wte.matrices import Matrix
from wte.oracles import is_noncrossing, mc_oracle, wick_oracle
from wte.perm import crossings, enumerate_pairings, pairing_count
from mc import mc_reference
from wick import wick_reference


def int_matrices(rng, shape, n_dim, m_dim, lo=-4, hi=4):
    return tuple(
        Matrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


def make_spec(lengths, eps, n_dim, m_dim, seed=0, labels=(), **kw):
    rng = random.Random(seed)
    shape = WordShape(lengths, eps, labels)
    return MomentSpec(shape, int_matrices(rng, shape, n_dim, m_dim), n_dim, m_dim, **kw)


class TestWickOracle:
    def test_quadratic_identity_word(self):
        # tr(X'X) with identity slots evaluates to M/N for any dims
        for n_dim, m_dim in ((2, 3), (4, 3), (5, 5)):
            shape = WordShape.alternating((2,))
            spec = MomentSpec(
                shape,
                (Matrix.identity(m_dim), Matrix.identity(n_dim)),
                n_dim,
                m_dim,
            )
            assert wick_oracle(spec) == Fraction(m_dim, n_dim)

    def test_odd_word_zero(self):
        spec = make_spec((3,), (1, 1, -1), 2, 2, seed=1)
        assert wick_oracle(spec) == 0

    def test_matches_engine_exactly(self):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=2)
        assert wick_oracle(spec) == moment(spec, exact=True).total

    def test_float_mode(self):
        spec = make_spec((4,), (-1, 1, -1, 1), 2, 2, seed=3)
        exact = wick_oracle(spec, exact=True)
        approx = wick_oracle(spec, exact=False)
        assert math.isclose(approx, float(exact), rel_tol=1e-12)

    def test_gram_and_q_weights(self):
        gram = Gram(("G", "H"), ((1, Fraction(1, 3)), (Fraction(1, 3), 1)))
        spec = make_spec(
            (4,),
            (-1, 1, -1, 1),
            2,
            2,
            seed=4,
            labels=("G", "H", "G", "H"),
            gram=gram,
            q=Fraction(1, 2),
        )
        assert wick_oracle(spec) == moment(spec, exact=True).total

    def test_transpose_reversal_symmetry(self):
        # transposing every slot matrix and reversing each factor's word
        # leaves the moment unchanged
        for seed in range(4):
            spec = make_spec((4, 2), (1, -1, 1, 1, -1, 1), 2, 3, seed=30 + seed)
            assert wick_oracle(spec) == wick_oracle(_reversed_spec(spec))

    def test_budget_exceeded(self, monkeypatch):
        spec = make_spec((10,), (-1, 1) * 5, 4, 4, seed=5)
        monkeypatch.setenv("WTE_BUDGET", "1000")
        with pytest.raises(BudgetError, match="budget"):
            wick_oracle(spec)

    def test_budget_env_override(self, monkeypatch):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=6)
        monkeypatch.setenv("WTE_BUDGET", "1")
        with pytest.raises(BudgetError):
            wick_oracle(spec)
        monkeypatch.setenv("WTE_BUDGET", "1000000")
        assert wick_oracle(spec) == moment(spec, exact=True).total

    def test_exact_requires_integer_entries(self):
        shape = WordShape.alternating((2,))
        mats = (Matrix([[1.5, 0], [0, 1]]), Matrix.identity(3))
        spec = MomentSpec(shape, mats, 3, 2)
        with pytest.raises(ValueError, match="exact"):
            wick_oracle(spec, exact=True)

    def test_wigner_average(self):
        spec = make_spec((2,), (1, 1), 3, 3, seed=7, labels=("Z", "Z"),
                         wigner=frozenset({"Z"}))
        assert wick_oracle(spec) == moment(spec, exact=True).total

    def test_corrupted_matrix_detected(self):
        # negative control: a perturbed copy must break oracle agreement
        spec = make_spec((4,), (-1, 1, -1, 1), 2, 2, seed=8)
        mats = list(spec.matrices)
        bumped = [list(row) for row in mats[1].entries]
        bumped[0][0] += 1
        mats[1] = Matrix(bumped)
        corrupted = MomentSpec(spec.shape, tuple(mats), 2, 2)
        assert wick_oracle(corrupted) != moment(spec, exact=True).total


GRAM_XY = Gram(("X", "Y"), ((1, Fraction(1, 2)), (Fraction(1, 2), 1)))


def _word(name):
    """The words the array sum is checked against the per-assignment loop
    on: q and Gram weights, Wigner sign assignments, two factors of a
    rectangular X, Fraction entries and ints past int64."""
    rng = random.Random(name)
    entries = {
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        "past_int64": lambda: rng.choice((-1, 1)) * rng.randint(2**40, 2**70),
    }.get(name, lambda: rng.randint(-3, 3))
    lengths, eps, n_dim, m_dim, kw = {
        "q_half": ((6,), (-1, 1) * 3, 2, 2, {"q": Fraction(1, 2)}),
        "gram": ((6,), (-1, 1) * 3, 2, 2,
                 {"labels": ("X", "Y", "X", "X", "Y", "Y"), "gram": GRAM_XY}),
        "wigner": ((4, 2), (1, -1, 1, 1, -1, 1), 2, 2,
                   {"labels": ("Z", "X", "Z", "X", "X", "Z"), "wigner": frozenset({"Z"})}),
        "rectangular_r2": ((2, 4), (-1, 1, 1, -1, -1, 1), 3, 2, {}),
        "fraction": ((6,), (-1, 1) * 3, 2, 3, {}),
        "past_int64": ((6,), (1, -1, -1, 1, 1, -1), 2, 2, {}),
    }[name]
    shape = WordShape(lengths, eps, kw.pop("labels", ()))
    mats = tuple(
        Matrix([[entries() for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )
    return MomentSpec(shape, mats, n_dim, m_dim, **kw)


class TestArraySumMatchesReference:
    """``wick_oracle`` sums array slices of index assignments; the loop
    of ``wick_reference`` visits them one at a time."""

    WORDS = ["q_half", "gram", "wigner", "rectangular_r2", "fraction", "past_int64"]

    @pytest.mark.parametrize("slice_size", [7, None], ids=["slice7", "default"])
    @pytest.mark.parametrize("name", WORDS)
    def test_exact_values_and_float_bits(self, monkeypatch, name, slice_size):
        spec = _word(name)
        if slice_size:
            # 7 does not divide (NM)^(m/2): slices end inside blocks' digits.
            monkeypatch.setattr(wte.oracles, "_WICK_SLICE", slice_size)
        exact = wick_oracle(spec, exact=True)
        assert exact == wick_reference(spec, exact=True)
        assert type(exact) is Fraction
        assert wick_oracle(spec, exact=False).hex() == wick_reference(spec, exact=False).hex()

    def test_products_past_int64_do_not_wrap(self, monkeypatch):
        # Entries of 2^60 overflow an int64 product; exact sums must not wrap.
        shape = WordShape.alternating((2,))
        big = Matrix([[2**60, 1], [1, 2**60]])
        spec = MomentSpec(shape, (big, big), 2, 2)
        monkeypatch.setattr(wte.oracles, "_WICK_SLICE", 3)
        assert wick_oracle(spec) == wick_reference(spec) == moment(spec, exact=True).total

    @pytest.mark.parametrize("amax, int64", [(2**30 - 1, True), (2**30, False)])
    def test_int64_sum_up_to_its_bound(self, monkeypatch, amax, int64):
        # tr(X' D1 X D2) at N = M = 2 sums 4 assignments a pairing; in one
        # slice of 4 the int64 bound 4 * amax^2 < 2^62 holds for amax < 2^30.
        # Every product here is amax^2, so the slice sums to 4 * amax^2.
        d = Matrix([[amax, amax], [amax, amax]])
        spec = MomentSpec(WordShape.alternating((2,)), (d, d), 2, 2)
        want = moment(spec, exact=True).total
        monkeypatch.setattr(wte.oracles, "_WICK_SLICE", 4)
        loads, as_int64 = [], Matrix.as_int64
        monkeypatch.setattr(Matrix, "as_int64", lambda a: loads.append(a) or as_int64(a))
        got = wick_oracle(spec)
        assert bool(loads) is int64
        assert got == wick_reference(spec) == want and type(got) is Fraction

    def test_fraction_and_float_entries_keep_the_object_sum(self, monkeypatch):
        loads, as_int64 = [], Matrix.as_int64
        monkeypatch.setattr(Matrix, "as_int64", lambda a: loads.append(a) or as_int64(a))
        fraction, floats = _word("fraction"), _word("q_half")
        assert wick_oracle(fraction) == wick_reference(fraction)
        assert wick_oracle(floats, exact=False) == wick_reference(floats, exact=False)
        assert loads == []

    def test_empty_word(self):
        spec = MomentSpec(WordShape(()), (), 2, 3)
        assert wick_oracle(spec) == wick_reference(spec) == 1
        assert wick_oracle(spec, exact=False) == wick_reference(spec, exact=False) == 1.0


class TestEngineMatchesWickAtTenLetters:
    """The exact moment of the m = 10 words of the benchmark's exact sweep
    at N = M = 2: 945 pairings times 4^5 index assignments (times 4 sign
    assignments for the Wigner word) for the oracle."""

    @pytest.mark.parametrize(
        "labels, eps, kw",
        [
            ("X" * 10, (-1, 1) * 5, {"q": Fraction(1, 2)}),
            ("XXYXXYXXYX", (-1, 1) * 5, {"gram": GRAM_XY}),
            ("XXZXXXXZXX", (-1, 1, 1, -1, 1, -1, 1, 1, -1, 1), {"wigner": frozenset({"Z"})}),
        ],
        ids=["q10", "gram10", "wig10"],
    )
    def test_exact_moment_equals_oracle(self, labels, eps, kw):
        shape = WordShape((10,), eps, tuple(labels))
        mats = int_matrices(random.Random(labels), shape, 2, 2, -3, 3)
        spec = MomentSpec(shape, mats, 2, 2, **kw)
        assert moment(spec, exact=True).total == wick_oracle(spec, exact=True)


RATIONALS = st.fractions(-2, 2, max_denominator=3)


@st.composite
def small_specs(draw):
    """Words with m <= 6 letters in at most two factors over one, two or
    three families, int and Fraction matrix entries, a symmetric rational
    Gram matrix, q in {-1, 0, 1/2, 1} and at most one Wigner family (then
    N = M)."""
    lengths = tuple(
        draw(
            st.lists(st.integers(1, 6), min_size=1, max_size=2).filter(
                lambda ls: sum(ls) <= 6 and sum(ls) % 2 == 0
            )
        )
    )
    m = sum(lengths)
    families = draw(st.sampled_from((("X",), ("X", "Y"), ("X", "Y", "Z"))))
    labels = tuple(draw(st.lists(st.sampled_from(families), min_size=m, max_size=m)))
    eps = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)))
    wigner = frozenset(draw(st.sets(st.sampled_from(sorted(set(labels))), max_size=1)))
    n_dim = draw(st.integers(1, 2))
    m_dim = n_dim if wigner else draw(st.integers(1, 2))
    # The oracle visits (m-1)!! (NM)^(m/2) 2^w index assignments; keep each
    # example to a few milliseconds.
    w = sum(lab in wigner for lab in labels)
    assume(pairing_count(m) * (n_dim * m_dim) ** (m // 2) * 2**w <= 10_000)
    shape = WordShape(lengths, eps, labels)
    entries = st.one_of(st.integers(-3, 3), RATIONALS)
    mats = [
        Matrix([[draw(entries) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    ]
    n = len(families)
    diag = [draw(RATIONALS) for _ in families]
    off = {(i, j): draw(RATIONALS) for i in range(n) for j in range(i + 1, n)}
    gram = Gram(
        families,
        tuple(
            tuple(diag[i] if i == j else off[min(i, j), max(i, j)] for j in range(n))
            for i in range(n)
        ),
    )
    q = draw(st.sampled_from((-1, 0, Fraction(1, 2), 1)))
    return MomentSpec(
        shape, tuple(mats), n_dim, m_dim, q=q, gram=gram, wigner=wigner
    )


class TestEngineMatchesWick:
    @settings(max_examples=100, deadline=None)
    @given(small_specs())
    def test_exact_moment_equals_oracle(self, spec):
        assert moment(spec, exact=True).total == wick_oracle(spec, exact=True)


def _reversed_spec(spec):
    """Transpose every slot matrix and reverse each factor's word."""
    shape = spec.shape
    new_eps, new_mats = [], []
    for a, b in shape.factor_ranges():
        eps = shape.epsilon[a - 1 : b]
        mats = spec.matrices[a - 1 : b]
        s = len(eps)
        new_eps.extend(-eps[s - 1 - i] for i in range(s))
        # slot i of the reversed factor holds the transpose of slot s-2-i,
        # with the factor's last slot staying last
        new_mats.extend(
            Matrix(tuple(zip(*mats[(s - 2 - i) % s].entries))) for i in range(s)
        )
    new_shape = WordShape(shape.lengths, tuple(new_eps), shape.labels)
    return MomentSpec(new_shape, tuple(new_mats), spec.n_dim, spec.m_dim,
                      q=spec.q, gram=spec.gram)


class TestNoncrossing:
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_matches_crossing_count(self, m):
        for p in enumerate_pairings(m):
            assert is_noncrossing(p.blocks()) == (crossings(p) == 0)

    def test_catalan_counts(self):
        counts = [
            sum(1 for p in enumerate_pairings(2 * n) if is_noncrossing(p.blocks()))
            for n in range(1, 5)
        ]
        assert counts == [1, 2, 5, 14]


MC_WORDS = ["one_family", "gram", "wigner"]


def mc_word(word):
    """A one-family moment, a Gram cumulant or a Wigner moment, and its
    statistic."""
    gram = Gram(("G", "H"), ((1, Fraction(1, 2)), (Fraction(1, 2), 1)))
    return {
        "one_family": (make_spec((4,), (-1, 1, -1, 1), 3, 2, seed=14), "moment"),
        "gram": (
            make_spec((2, 2), (-1, 1, -1, 1), 3, 3, seed=15,
                      labels=("G", "H", "H", "G"), gram=gram),
            "cumulant",
        ),
        "wigner": (
            make_spec((4,), (1, -1, 1, 1), 3, 3, seed=16,
                      labels=("Z", "X", "X", "Z"), wigner=frozenset({"Z"})),
            "moment",
        ),
    }[word]


def set_chunk(monkeypatch, spec, samples):
    """Size the oracle's chunks to ``samples`` samples of ``spec``."""
    families = len(set(spec.shape.labels))
    monkeypatch.setattr(
        wte.oracles, "_MC_CHUNK_BYTES", samples * 8 * families * spec.n_dim * spec.m_dim
    )


def set_block(monkeypatch, spec, samples):
    """Size the oracle's sample blocks to ``samples`` samples of ``spec``."""
    families = len(set(spec.shape.labels))
    monkeypatch.setattr(
        wte.oracles, "_MC_BLOCK_BYTES",
        samples * 8 * families * max(spec.n_dim, spec.m_dim) ** 2,
    )


class TestMcOracle:
    def test_deterministic_replay(self):
        spec = make_spec((2,), (-1, 1), 4, 4, seed=10)
        a = mc_oracle(spec, 5000, seed=123)
        b = mc_oracle(spec, 5000, seed=123)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_seed_changes_estimate(self):
        spec = make_spec((2,), (-1, 1), 4, 4, seed=10)
        assert mc_oracle(spec, 2000, seed=1).estimate != mc_oracle(spec, 2000, seed=2).estimate

    def test_quadratic_word_within_five_sigma(self):
        shape = WordShape.alternating((2,))
        spec = MomentSpec(
            shape, (Matrix.identity(8), Matrix.identity(8)), 8, 8
        )
        rep = mc_oracle(spec, 100_000, seed=7)
        assert rep.zscore(1.0) <= 5

    def test_random_d_within_five_sigma(self):
        spec = make_spec((4,), (-1, 1, -1, 1), 6, 6, seed=11)
        exact = float(moment(spec, exact=True).total)
        rep = mc_oracle(spec, 50_000, seed=11)
        assert rep.zscore(exact) <= 5

    def test_independent_families_cross_word(self):
        # odd per-family counts with independent families: moment is 0
        shape = WordShape((2,), (1, -1), ("G", "H"))
        mats = (Matrix.identity(4),) * 2
        spec = MomentSpec(shape, mats, 4, 4)
        rep = mc_oracle(spec, 20_000, seed=3)
        assert abs(rep.estimate) <= 5 * rep.stderr

    def test_wigner_sampling(self):
        shape = WordShape((2,), (1, 1), ("Z", "Z"))
        spec = MomentSpec(
            shape, (Matrix.identity(6),) * 2, 6, 6, wigner=frozenset({"Z"})
        )
        exact = float(moment(spec, exact=True).total)
        rep = mc_oracle(spec, 40_000, seed=5)
        assert rep.zscore(exact) <= 5

    def test_correlated_families(self):
        gram = Gram(("G", "H"), ((1, Fraction(1, 2)), (Fraction(1, 2), 1)))
        shape = WordShape((2,), (-1, 1), ("G", "H"))
        spec = MomentSpec(shape, (Matrix.identity(5),) * 2, 5, 5, gram=gram)
        exact = float(moment(spec, exact=True).total)
        rep = mc_oracle(spec, 40_000, seed=9)
        assert rep.zscore(exact) <= 5

    def test_plugin_cumulant(self):
        spec = MomentSpec(
            WordShape.alternating((2, 2)),
            (Matrix.identity(6),) * 4,
            6,
            6,
        )
        exact = float(cumulant(spec, exact=True).total)
        rep = mc_oracle(spec, 60_000, seed=13, statistic="cumulant")
        assert rep.statistic == "cumulant"
        assert rep.zscore(exact) <= 5

    def test_factor_means_diagnostics(self):
        spec = MomentSpec(
            WordShape.alternating((2, 2)),
            (Matrix.identity(4),) * 4,
            4,
            4,
        )
        rep = mc_oracle(spec, 5000, seed=2)
        assert len(rep.factor_means) == 2
        assert all(abs(fm - 1.0) < 0.2 for fm in rep.factor_means)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("word", MC_WORDS)
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, word, chunk):
        spec, statistic = mc_word(word)
        whole = mc_oracle(spec, 400, seed=17, statistic=statistic)
        set_chunk(monkeypatch, spec, chunk)
        assert mc_oracle(spec, 400, seed=17, statistic=statistic) == whole

    def test_rejects_q_not_one(self):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=12, q=0.5)
        with pytest.raises(ValueError, match="q = 1"):
            mc_oracle(spec, 100)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_rejects_seed_outside_the_key_range(self, seed):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=12)
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*128\), got {seed}"):
            mc_oracle(spec, 100, seed=seed)

    def test_rejects_tiny_sample_count(self):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=12)
        with pytest.raises(ValueError, match="2 samples"):
            mc_oracle(spec, 1)

    def test_rejects_indefinite_gram(self):
        gram = Gram(("G", "H"), ((1, 2), (2, 1)))  # eigenvalues 3, -1
        shape = WordShape.alternating((2,), ("G", "H"))
        spec = MomentSpec(shape, (Matrix.identity(2),) * 2, 2, 2, gram=gram)
        with pytest.raises(ValueError, match="semi-definite"):
            mc_oracle(spec, 100)

    def test_singular_psd_gram_allowed(self):
        gram = Gram(("G", "H"), ((1, 1), (1, 1)))  # rank one, PSD
        shape = WordShape.alternating((2,), ("G", "H"))
        spec = MomentSpec(shape, (Matrix.identity(5),) * 2, 5, 5, gram=gram)
        exact = float(moment(spec, exact=True).total)
        rep = mc_oracle(spec, 30_000, seed=21)
        assert rep.zscore(exact) <= 5

    def test_empty_word_estimates_one(self):
        spec = MomentSpec(WordShape(()), (), 2, 2)
        rep = mc_oracle(spec, 10, seed=4)
        assert (rep.estimate, rep.stderr, rep.factor_means) == (1.0, 0.0, ())
        assert moment(spec).total == wick_oracle(spec) == rep.estimate

    def test_samples_past_budget_refused_before_any_draw(self, monkeypatch):
        # 1,000 samples of a 2-letter word are 2,000 operations against 1,999.
        def never(*args):
            raise AssertionError("drew samples before the budget check")

        spec = make_spec((2,), (-1, 1), 2, 2, seed=12)
        monkeypatch.setattr(wte.oracles, "_mc_draw", never)
        monkeypatch.setenv("WTE_BUDGET", "1999")
        with pytest.raises(BudgetError, match="Monte Carlo sampling"):
            mc_oracle(spec, 1000)
        monkeypatch.setenv("WTE_BUDGET", "2000")
        with pytest.raises(AssertionError, match="before the budget check"):
            mc_oracle(spec, 1000)

    def test_variance_overflow_raises(self):
        # Deviations of about 1e160 square past the largest double; the
        # variance raises an OverflowError that names it and its cause,
        # not an inf stderr.
        shape = WordShape.alternating((2,))
        big = Matrix([[1e160, 0], [0, 1e160]])
        spec = MomentSpec(shape, (big, Matrix.identity(2)), 2, 2)
        with pytest.raises(OverflowError) as info:
            mc_oracle(spec, 1000, seed=1)
        assert str(info.value) == (
            "Monte Carlo variance out of float range: the samples' squared "
            "deviations from their mean pass the largest double"
        )

    @pytest.mark.parametrize("r", [1, 2])
    def test_peak_memory_per_sample(self, r):
        # The products keep one float64 per sample and factor; the tail
        # works in place, and only two chunks of draws are in flight.
        samples = 1_000_000
        shape = WordShape.alternating((2,) * r)
        spec = MomentSpec(shape, (Matrix.identity(2),) * (2 * r), 2, 2)
        tracemalloc.start()
        try:
            mc_oracle(spec, samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (r + 2) * samples + 2 * wte.oracles._MC_CHUNK_BYTES

    def test_rejects_high_order_cumulant(self):
        spec = MomentSpec(
            WordShape.alternating((2, 2, 2)),
            (Matrix.identity(3),) * 6,
            3,
            3,
        )
        with pytest.raises(ValueError, match="r = 2"):
            mc_oracle(spec, 100, statistic="cumulant")


def report_bits(rep):
    return (
        rep.estimate.hex(), rep.stderr.hex(), [x.hex() for x in rep.factor_means],
        rep.samples, rep.seed, rep.statistic,
    )


class TestMcDrawThread:
    """The draws run on one background thread, a chunk ahead of the
    products; the report is the serial loop's, bit for bit, and no thread
    outlives the call."""

    @pytest.mark.parametrize(
        ("chunk", "block"),
        [(400, None), (200, None), (150, None), (150, 1), (150, 7), (150, 1000)],
        ids=["one", "two", "ragged", "one-sample-blocks", "ragged-blocks",
             "blocks-past-the-chunk"],
    )
    @pytest.mark.parametrize("word", MC_WORDS)
    def test_matches_the_serial_loop(self, monkeypatch, word, chunk, block):
        spec, statistic = mc_word(word)
        want = mc_reference(spec, 400, seed=17, statistic=statistic)
        set_chunk(monkeypatch, spec, chunk)
        if block is not None:
            set_block(monkeypatch, spec, block)
        before = threading.active_count()
        got = mc_oracle(spec, 400, seed=17, statistic=statistic)
        assert report_bits(got) == report_bits(want)
        assert threading.active_count() == before

    # The reports at 400 samples and seed 17, pinned so that a change that
    # moves the oracle and the serial loop together still fails.
    PINNED = {
        "one_family": ("-0x1.a95284530516cp-5", "0x1.1a24ef9b2475cp+0",
                       ["-0x1.a95284530516cp-5"], 400, 17, "moment"),
        "gram": ("-0x1.25f23137e6afep-4", "0x1.2e5cb59054e5ep+0",
                 ["-0x1.03121669d7c63p+0", "-0x1.0c9de1cfada21p+0"], 400, 17, "cumulant"),
        "wigner": ("0x1.95c6ab7b91257p+1", "0x1.25a95c232b83cp+1",
                   ["0x1.95c6ab7b91257p+1"], 400, 17, "moment"),
    }

    @pytest.mark.parametrize("word", MC_WORDS)
    def test_pinned_bits(self, word):
        spec, statistic = mc_word(word)
        got = mc_oracle(spec, 400, seed=17, statistic=statistic)
        assert report_bits(got) == self.PINNED[word]

    def test_matches_the_serial_loop_at_the_default_budget(self):
        # 2 MiB chunks hold 256 samples of one 32 x 32 family, multiplied
        # 32 at a time: five chunks, the last ragged, against the serial
        # loop's two 8 MiB chunks, each multiplied whole.
        spec = make_spec((4,), (-1, 1, -1, 1), 32, 32, seed=18)
        want = mc_reference(spec, 1200, seed=19)
        assert report_bits(mc_oracle(spec, 1200, seed=19)) == report_bits(want)

    def test_one_sample_chunks_under_a_short_switch_interval(self, monkeypatch):
        # 300 chunks, with the threads switching as often as they can.
        spec, statistic = mc_word("gram")
        want = mc_reference(spec, 300, seed=23, statistic=statistic)
        set_chunk(monkeypatch, spec, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mc_oracle(spec, 300, seed=23, statistic=statistic)
        finally:
            sys.setswitchinterval(interval)
        assert report_bits(got) == report_bits(want)

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        class DrawError(Exception):
            pass

        spec, _ = mc_word("one_family")
        set_chunk(monkeypatch, spec, 100)
        draw, calls = wte.oracles._mc_draw, []

        def failing(*args):
            calls.append(args[2])
            if len(calls) == 3:
                raise DrawError("the third draw failed")
            return draw(*args)

        monkeypatch.setattr(wte.oracles, "_mc_draw", failing)
        before = threading.active_count()
        with pytest.raises(DrawError, match="^the third draw failed$"):
            mc_oracle(spec, 400, seed=17)
        assert calls == [100, 100, 100] and threading.active_count() == before

    def test_product_error_waits_for_the_draw_in_flight(self, monkeypatch):
        # The first chunk has one row too few, so its product fails in the
        # calling thread once the second chunk is submitted.  A draw that
        # has started is finished before the error leaves the call, and
        # one still queued is cancelled.
        spec, _ = mc_word("one_family")
        set_chunk(monkeypatch, spec, 100)
        draw, started, finished = wte.oracles._mc_draw, [], []

        def short(*args):
            started.append(args[2])
            if len(started) == 1:
                chunk = draw(*args)[..., 1:, :]
            else:
                time.sleep(0.05)
                chunk = draw(*args)
            finished.append(args[2])
            return chunk

        monkeypatch.setattr(wte.oracles, "_mc_draw", short)
        before = threading.active_count()
        with pytest.raises(ValueError):
            mc_oracle(spec, 400, seed=17)
        assert started == finished and started in ([100], [100, 100])
        assert threading.active_count() == before
