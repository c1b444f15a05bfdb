"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints an ``ACCEPTANCE n: PASS`` line on success (visible with
``pytest -rA``); a failing criterion shows up as the test failure itself.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from wte.engine import Gram, MomentSpec, clt_report, cumulant, moment, subspec
from wte.gluing import (
    WordShape,
    lift_pairing,
    particular_cycles,
    slot_dimensions,
    surface_census,
    transpose_flip,
    vertex_permutation,
)
from wte.matrices import Matrix, trace_along
from wte.oracles import is_noncrossing, mc_oracle, wick_oracle
from wte.perm import (
    Pairing,
    cycle_string,
    cycles,
    enumerate_pairings,
    signed_domain,
)

from partitions import set_partitions


def report(n, name):
    print(f"ACCEPTANCE {n}: PASS - {name}")


def int_matrices(rng, shape, n_dim, m_dim, lo=-3, hi=3):
    return tuple(
        Matrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


def test_01_worked_example_regression():
    shape = WordShape.alternating((6, 4))
    p = Pairing.from_blocks(10, [(1, 9), (2, 7), (3, 4), (5, 10), (6, 8)])

    def compute():
        ph = lift_pairing(p, transpose_flip(shape))
        v = vertex_permutation(p, shape)
        return cycle_string(cycles(ph)), cycle_string(cycles(v))

    ph_str, v_str = compute()
    assert ph_str == "(1,-9)(-1,9)(2,7)(-2,-7)(3,4)(-3,-4)(5,10)(-5,-10)(6,-8)(-6,8)"
    assert (
        v_str == "(1,7,-5,-9)(-1,9,5,-7)(2,4,10)(-2,-10,-4)(3)(-3)(6,-8)(-6,8)"
    )
    best = min(
        (lambda t0: (compute(), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(50)
    )
    assert best < 1e-3, f"construction took {best * 1e3:.3f} ms"
    report(1, "worked-example cycle decompositions, < 1 ms")


def test_02_particular_cycle_trace_crosscheck():
    rng = random.Random(2)
    mats = [
        Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        for _ in range(10)
    ]
    ms = tuple(mats)
    got = trace_along([(1, 7, -5, -9)], ms, exact=True)
    arrs = [np.array(m.entries, dtype=object) for m in mats]
    direct = np.trace(arrs[0] @ arrs[6] @ arrs[4].T @ arrs[8].T)
    assert got == direct
    report(2, "vertex cycle evaluates to the four-matrix trace, exact")


def test_03_oracle_equivalence_grid():
    t0 = time.perf_counter()
    rng = random.Random(123)
    shapes = [(m,) for m in range(1, 7)] + [
        (a, b) for a in range(1, 6) for b in range(1, 7 - a)
    ]
    cases = 0
    for lengths in shapes:
        m = sum(lengths)
        for eps in itertools.product((1, -1), repeat=m):
            shape = WordShape(lengths, eps)
            for n_dim, m_dim in itertools.product((1, 2, 3), repeat=2):
                spec = MomentSpec(
                    shape, int_matrices(rng, shape, n_dim, m_dim), n_dim, m_dim
                )
                exact_oracle = wick_oracle(spec, exact=True)
                assert moment(spec, exact=True).total == exact_oracle, (
                    lengths, eps, n_dim, m_dim,
                )
                approx = moment(spec).total
                scale = max(abs(float(exact_oracle)), abs(approx), 1.0)
                assert abs(approx - float(exact_oracle)) <= 1e-10 * scale, (
                    lengths, eps, n_dim, m_dim,
                )
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"grid took {elapsed:.1f} s"
    report(3, f"oracle equivalence on {cases} words in {elapsed:.1f} s")


def test_04_closed_forms():
    rng = random.Random(4)
    n = 4
    d1 = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    d2 = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    a1, a2 = d1.as_array(), d2.as_array()

    plain = MomentSpec(WordShape((2,), (1, 1)), (d1, d2), n, n)
    got = float(moment(plain).total)
    want = np.trace(a1 @ a2.T) / n**2
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    wigner = MomentSpec(
        WordShape((2,), (1, 1), ("Z", "Z")),
        (d1, d2),
        n,
        n,
        wigner=frozenset({"Z"}),
    )
    got_z = float(moment(wigner).total)
    want_z = 0.5 * (np.trace(a1) / n) * (np.trace(a2) / n) + 0.5 / n * (
        np.trace(a1 @ a2.T) / n
    )
    assert abs(got_z - want_z) <= 1e-12 * max(abs(want_z), 1.0)
    report(4, "plain and Wigner quadratic closed forms at N=M=4")


def test_05_monte_carlo_agreement():
    t0 = time.perf_counter()
    rng = random.Random(42)
    n = 8
    d1 = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    d2 = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    words = [
        MomentSpec(WordShape.alternating((2,)), (d1, d2), n, n),
        MomentSpec(WordShape.alternating((4,)), (d1, d2, d1, d2), n, n),
    ]
    for spec in words:
        exact = float(moment(spec, exact=True).total)
        rep = mc_oracle(spec, 100_000, seed=2026)
        assert abs(rep.estimate - exact) <= 5 * rep.stderr, (
            exact, rep.estimate, rep.stderr,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"Monte Carlo took {elapsed:.1f} s"
    report(5, f"both trace words within 5 standard errors in {elapsed:.1f} s")


def test_06_cover_pairing_property_suite():
    def check(m, p, eps):
        shape = WordShape((m,), eps)
        ph = lift_pairing(p, transpose_flip(shape))
        for k in signed_domain(m):
            assert ph(ph(k)) == k and ph(k) != k
            assert ph(-k) == -ph(k)  # conjugating by the sign flip fixes it
            assert abs(ph(k)) == p(abs(k))
        for lengths in ((m,), (m // 2, m // 2)):
            v = vertex_permutation(p, WordShape(lengths, eps))
            cs = cycles(v)
            seen = set(cs)
            parts = particular_cycles(v)  # raises if mirrors are missing
            assert 2 * len(parts) == len(cs)
            for c in cs:
                mirror = tuple(-x for x in reversed(c))
                rotations = {mirror[i:] + mirror[:i] for i in range(len(mirror))}
                assert rotations & seen and c not in rotations

    checked = 0
    for m in (2, 4, 6):
        for p in enumerate_pairings(m):
            for eps in itertools.product((1, -1), repeat=m):
                check(m, p, eps)
                checked += 1
    rng = random.Random(6)
    pairings8 = list(enumerate_pairings(8))
    for _ in range(1000):
        p = rng.choice(pairings8)
        eps = tuple(rng.choice((1, -1)) for _ in range(8))
        check(8, p, eps)
        checked += 1
    report(6, f"lifted-pairing and mirror properties on {checked} cases")


def _compositions(m, max_parts):
    for r in range(1, max_parts + 1):
        for cut in itertools.combinations(range(1, m), r - 1):
            prev, parts = 0, []
            for c in cut + (m,):
                parts.append(c - prev)
                prev = c
            yield tuple(parts)


def test_07_order_bound_census():
    checked = 0
    for m in (2, 4, 6, 8, 10):
        pairings = list(enumerate_pairings(m))
        eps_variants = [
            tuple(1 for _ in range(m)),
            tuple(-1 if k % 2 else 1 for k in range(1, m + 1)),
        ]
        for lengths in _compositions(m, 3):
            r = len(lengths)
            for eps in eps_variants:
                shape = WordShape(lengths, eps)
                for p in pairings:
                    rep = surface_census(p, shape)
                    v = rep.vertex_count
                    assert v <= m // 2 + r, (lengths, eps, p.blocks())
                    if rep.connected:
                        assert v <= m // 2 - r + 2, (lengths, eps, p.blocks())
                    if rep.order_exponent == 0:
                        assert rep.all_spheres
                    assert all(c.chi <= 2 for c in rep.components)
                    checked += 1
    report(7, f"cycle-count and Euler bounds on {checked} censuses")


def test_08_moment_cumulant_inversion():
    words = [
        ((2, 2, 4), tuple(-1 if k % 2 else 1 for k in range(1, 9)), 2, 2),
        ((2, 2, 2), (1, 1, -1, 1, -1, -1), 2, 3),
        ((1, 2, 3), (1, -1, 1, 1, -1, 1), 3, 2),
        ((4, 4), (-1, 1, -1, 1, 1, -1, 1, -1), 2, 2),
        ((2, 3, 3), (1, -1, -1, 1, 1, -1, 1, 1), 2, 2),
    ]
    for seed, (lengths, eps, n_dim, m_dim) in enumerate(words):
        rng = random.Random(80 + seed)
        shape = WordShape(lengths, eps)
        spec = MomentSpec(shape, int_matrices(rng, shape, n_dim, m_dim), n_dim, m_dim)
        r = shape.r

        exact_sum = Fraction(0)
        float_sum = 0.0
        for part in set_partitions(r):
            prod_exact = Fraction(1)
            prod_float = 1.0
            for block in part:
                sub = subspec(spec, block)
                prod_exact *= Fraction(cumulant(sub, exact=True).total)
                prod_float *= cumulant(sub).total
            exact_sum += prod_exact
            float_sum += prod_float

        exact_moment = moment(spec, exact=True).total
        assert exact_sum == exact_moment, (lengths, eps)
        float_moment = moment(spec).total
        scale = max(abs(float_moment), abs(float_sum), 1.0)
        assert abs(float_sum - float_moment) <= 1e-10 * scale, (lengths, eps)
    report(8, f"inversion over set partitions for {len(words)} mixed words")


def test_09_q_model_checks():
    rng = random.Random(9)

    # q = 1 with a rank-one unit gram is the single-family model
    shape_one = WordShape.alternating((4,))
    mats = int_matrices(rng, shape_one, 3, 3)
    single = MomentSpec(shape_one, mats, 3, 3)
    tied = MomentSpec(
        WordShape.alternating((4,), ("G", "H", "G", "H")),
        mats,
        3,
        3,
        gram=Gram(("G", "H"), ((1, 1), (1, 1))),
    )
    assert moment(tied, exact=True).total == moment(single, exact=True).total

    # q = 0 keeps exactly the noncrossing pairings
    shape6 = WordShape.alternating((6,))
    mats6 = int_matrices(rng, shape6, 2, 2)
    at_q0 = moment(MomentSpec(shape6, mats6, 2, 2, q=0), exact=True).total
    res_q1 = moment(MomentSpec(shape6, mats6, 2, 2), exact=True)
    prefactor = Fraction(1, 2 ** -res_q1.prefactor_exponent)
    restricted = prefactor * sum(
        t.value for t in res_q1.terms if is_noncrossing(t.blocks)
    )
    assert at_q0 == restricted
    report(9, "rank-one gram collapse and q=0 noncrossing restriction, exact")


def test_10_fluctuation_scaling():
    # quadratic word: both transitive pairings already sit at the bound, so
    # the gap is exactly zero at every size; the stated shrink holds
    # non-strictly (0 <= 0/2), and the quartic companion shows the strict
    # O(1/N) behaviour
    def gaps_for(lengths):
        out = []
        for n in (8, 16, 32):
            shape = WordShape.alternating(lengths)
            factor = MomentSpec(
                shape, (Matrix.identity(n),) * shape.m, n, n
            )
            rep = clt_report(factor)
            out.append(abs(float(rep.full[0][0]) - float(rep.leading[0][0])))
        return out

    quad = gaps_for((2,))
    assert quad[1] <= quad[0] and quad[2] <= quad[1]
    assert quad[1] <= quad[0] / 2 + 1e-12
    assert quad[2] <= quad[1] / 2 + 1e-12

    quartic = gaps_for((4,))
    assert quartic[0] > quartic[1] > quartic[2] > 0
    assert quartic[1] <= quartic[0] / 2 + 1e-9
    assert quartic[2] <= quartic[1] / 2 + 1e-9
    report(10, "N^2 k_2 gap halves (or stays zero) per doubling of N")
