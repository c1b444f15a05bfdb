import dataclasses
import gc
import inspect
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import wte.engine
from wte.engine import (
    BudgetError,
    Gram,
    MomentSpec,
    TermReport,
    clt_report,
    cumulant,
    is_transitive,
    leading_terms,
    moment,
    pairing_weight,
    subspec,
)
from wte.gluing import WordShape, slot_dimensions
from wte.matrices import DimensionError, Matrix
from wte.perm import Pairing, enumerate_pairings
from wte.oracles import is_noncrossing, wick_oracle

from partitions import set_partitions


def int_matrices(rng, shape, n_dim, m_dim, lo=-4, hi=4):
    return tuple(
        Matrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
        for r, c in slot_dimensions(shape, n_dim, m_dim)
    )


def make_spec(lengths, eps, n_dim, m_dim, seed=0, labels=(), **kw):
    rng = random.Random(seed)
    shape = WordShape(lengths, eps, labels)
    return MomentSpec(shape, int_matrices(rng, shape, n_dim, m_dim), n_dim, m_dim, **kw)


def identity_spec(lengths, n_dim, labels=(), **kw):
    shape = WordShape.alternating(lengths, labels)
    mats = (Matrix.identity(n_dim),) * shape.m
    return MomentSpec(shape, mats, n_dim, n_dim, **kw)


class TestSpecValidation:
    def test_q_range(self):
        with pytest.raises(ValueError, match="q must lie"):
            make_spec((2,), (-1, 1), 2, 2, q=2)

    def test_gram_must_cover(self):
        with pytest.raises(ValueError, match="does not cover"):
            make_spec((2,), (-1, 1), 2, 2, labels=("G", "H"), gram=Gram.identity(("G",)))

    def test_unknown_wigner_family(self):
        with pytest.raises(ValueError, match="wigner"):
            make_spec((2,), (1, 1), 2, 2, wigner=frozenset({"Z"}))

    def test_wigner_needs_square(self):
        shape = WordShape((2,), (1, 1), ("Z", "Z"))
        mats = (Matrix([[1, 0], [0, 1], [0, 0]]),) * 2
        with pytest.raises(DimensionError, match="square"):
            MomentSpec(shape, mats, 3, 2, wigner=frozenset({"Z"}))

    def test_profile_checked(self):
        shape = WordShape.alternating((2,))
        with pytest.raises(DimensionError, match="slot 1"):
            MomentSpec(shape, (Matrix.identity(3),) * 2, 3, 2)
        three = (Matrix.identity(2), Matrix.identity(3), Matrix.identity(2))
        with pytest.raises(ValueError, match="word has 2 slots, matrix set has 3"):
            MomentSpec(shape, three, 3, 2)

    def test_matrices_list_is_a_tuple(self):
        shape = WordShape.alternating((2,))
        mats = [Matrix.identity(3), Matrix([[1, 2], [3, 4]])]
        listed = MomentSpec(shape, mats, 2, 3)
        given = MomentSpec(shape, tuple(mats), 2, 3)
        assert listed.matrices == given.matrices and type(listed.matrices) is tuple
        assert listed == given and hash(listed) == hash(given)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_names_slot_and_entry(self, bad):
        shape = WordShape.alternating((2,))
        mats = (Matrix.identity(2), Matrix([[1, 2, bad], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(ValueError, match=rf"slot 2 entry \(1, 3\) is {bad}: .* finite"):
            MomentSpec(shape, mats, 3, 2)

    def test_gram_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Gram(("G", "H"), ((1, 0), (1, 1)))

    def test_fingerprint_stable_and_sensitive(self):
        a = make_spec((2,), (-1, 1), 2, 2, seed=5)
        b = make_spec((2,), (-1, 1), 2, 2, seed=5)
        c = make_spec((2,), (-1, 1), 2, 2, seed=6)
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()


class TestPairingWeight:
    def test_single_unit_family_is_one(self):
        spec = identity_spec((4,), 2)
        for p in enumerate_pairings(4):
            assert pairing_weight(p, spec, exact=True) == 1

    def test_orthogonal_families_kill_mixed_blocks(self):
        spec = make_spec((2,), (-1, 1), 2, 2, labels=("G", "H"))
        p = Pairing.from_blocks(2, [(1, 2)])
        assert pairing_weight(p, spec, exact=True) == 0

    def test_crossing_q_factor(self):
        spec = identity_spec((4,), 2, q=0.5)
        assert pairing_weight(Pairing.from_blocks(4, [(1, 3), (2, 4)]), spec) == 0.5

    def test_q_zero_convention(self):
        spec = identity_spec((4,), 2, q=0)
        assert pairing_weight(Pairing.from_blocks(4, [(1, 2), (3, 4)]), spec, exact=True) == 1
        assert pairing_weight(Pairing.from_blocks(4, [(1, 3), (2, 4)]), spec, exact=True) == 0


class TestMoment:
    def test_first_wishart_moment_closed_form(self):
        spec = make_spec((2,), (-1, 1), 3, 2, seed=1)
        d1, d2 = spec.matrices
        tr1 = sum(d1.entries[i][i] for i in range(2))
        tr2 = sum(d2.entries[i][i] for i in range(3))
        assert moment(spec, exact=True).total == Fraction(tr1 * tr2, 9)

    def test_plain_word_closed_form(self):
        # no transposes: N^-2 Tr(D1 D2^T), slots rectangular when N != M
        spec = make_spec((2,), (1, 1), 3, 2, seed=2)
        d1, d2 = (m.as_array() for m in spec.matrices)
        expected = np.trace(d1 @ d2.T) / 9
        assert math.isclose(float(moment(spec, exact=True).total), expected)

    def test_empty_word(self):
        spec = MomentSpec(WordShape(()), (), 4, 3)
        res = moment(spec, exact=True)
        assert res.total == 1 and len(res.terms) == 1

    def test_odd_word_is_zero(self):
        spec = make_spec((3,), (1, -1, 1), 2, 2, seed=3)
        res = moment(spec, exact=True)
        assert res.total == 0 and res.terms == ()

    def test_matches_wick_on_mixed_words(self):
        for seed, (lengths, eps) in enumerate(
            [
                ((4,), (-1, 1, -1, 1)),
                ((4,), (1, 1, -1, -1)),
                ((2, 2), (-1, 1, 1, 1)),
                ((2, 4), (1, -1, -1, 1, 1, -1)),
            ]
        ):
            for n_dim, m_dim in ((2, 2), (2, 3), (3, 2)):
                spec = make_spec(lengths, eps, n_dim, m_dim, seed=seed)
                assert moment(spec, exact=True).total == wick_oracle(spec)

    def test_total_equals_prefactor_times_term_sum(self):
        spec = make_spec((2, 2), (-1, 1, -1, 1), 2, 3, seed=9)
        res = moment(spec, exact=True)
        assert res.total == Fraction(1, 2 ** -res.prefactor_exponent) * sum(
            t.value for t in res.terms
        )

    def test_scaling_single_matrix_is_linear(self):
        spec = make_spec((4, 2), (-1, 1, -1, 1, -1, 1), 2, 2, seed=4)
        mats = list(spec.matrices)
        mats[2] = Matrix([[7 * x for x in row] for row in mats[2].entries])
        scaled = MomentSpec(spec.shape, tuple(mats), 2, 2)
        assert moment(scaled, exact=True).total == 7 * moment(spec, exact=True).total
        assert cumulant(scaled, exact=True).total == 7 * cumulant(spec, exact=True).total

    @pytest.mark.parametrize("statistic", [moment, cumulant])
    def test_exact_requires_exact_entries(self, statistic):
        mats = (Matrix([[1.5, 0], [0, 1]]), Matrix.identity(3))
        spec = MomentSpec(WordShape.alternating((2,)), mats, 3, 2)
        with pytest.raises(ValueError, match="exact mode requires integer or rational"):
            statistic(spec, exact=True)
        assert math.isclose(statistic(spec).total, 2.5 / 3)

    @pytest.mark.parametrize("statistic", [moment, cumulant])
    def test_exact_rule_does_not_depend_on_weights(self, statistic):
        # The only pairing pairs independent families, so its weight is 0,
        # and exact mode still refuses the float slot, as the oracle does.
        mats = (Matrix([[0.5, 0], [0, 1]]), Matrix.identity(2))
        spec = MomentSpec(WordShape((2,), (1, -1), ("X", "Y")), mats, 2, 2)
        with pytest.raises(ValueError) as oracle:
            wick_oracle(spec)
        with pytest.raises(ValueError) as engine:
            statistic(spec, exact=True)
        assert str(engine.value) == str(oracle.value)
        assert str(engine.value) == "exact mode requires integer or rational matrix entries"
        assert statistic(spec).total == 0
        # An odd word has no terms: both give 0.
        odd = MomentSpec(WordShape((3,), (1, 1, 1)), mats + mats[:1], 2, 2)
        assert statistic(odd, exact=True).total == wick_oracle(odd) == 0

    def test_exact_float_agreement(self):
        spec = make_spec((4, 2), (-1, 1, -1, 1, -1, 1), 3, 2, seed=6)
        exact = moment(spec, exact=True).total
        approx = moment(spec).total
        assert math.isclose(approx, float(exact), rel_tol=1e-12, abs_tol=1e-14)

    def test_order_bound_for_moments(self):
        spec = make_spec((4, 2), (-1, 1, 1, -1, 1, 1), 2, 2, seed=8)
        assert all(t.order_exponent <= 0 for t in moment(spec, exact=True).terms)


class TestCumulant:
    def test_single_factor_equals_moment(self):
        spec = make_spec((4,), (-1, 1, -1, 1), 2, 3, seed=10)
        assert cumulant(spec, exact=True).total == moment(spec, exact=True).total

    def test_two_factor_term_count(self):
        spec = identity_spec((2, 2), 2)
        res = cumulant(spec, exact=True)
        assert len(res.terms) == 2
        assert len(moment(spec, exact=True).terms) == 3

    def test_transitive_order_bound(self):
        spec = make_spec((2, 2, 2), (-1, 1, -1, 1, -1, 1), 2, 2, seed=11)
        r = spec.shape.r
        terms = cumulant(spec, exact=True).terms
        assert terms and all(t.order_exponent <= 2 - 2 * r for t in terms)

    @pytest.mark.parametrize(
        "lengths,eps,seed",
        [
            ((2, 2), (-1, 1, -1, 1), 12),
            ((2, 2, 2), (-1, 1, -1, 1, -1, 1), 13),
            ((2, 1, 3), (1, -1, 1, 1, -1, 1), 14),
        ],
    )
    def test_moment_cumulant_inversion(self, lengths, eps, seed):
        spec = make_spec(lengths, eps, 2, 2, seed=seed)
        r = spec.shape.r
        total = Fraction(0)
        for part in set_partitions(r):
            prod = Fraction(1)
            for block in part:
                prod *= Fraction(cumulant(subspec(spec, block), exact=True).total)
            total += prod
        assert total == moment(spec, exact=True).total

    @pytest.mark.parametrize(
        "lengths,eps",
        [
            ((2, 4), (-1, 1, -1, 1, -1, 1)),
            ((4,), (1, -1, -1, 1)),
            ((1, 1, 2), (1, -1, -1, 1)),
            ((2, 1, 3), (1, -1, 1, 1, -1, 1)),
            ((1, 3, 2, 2), (-1, 1, 1, -1, 1, -1, -1, 1)),
        ],
        ids=["2-4", "4", "1-1-2", "2-1-3", "1-3-2-2"],
    )
    def test_is_transitive_matches_census_connectivity(self, lengths, eps):
        from wte.gluing import surface_census

        spec = make_spec(lengths, eps, 2, 2, seed=30)
        shape = spec.shape
        transitive = []
        for idx, p in enumerate(enumerate_pairings(shape.m)):
            assert is_transitive(p, shape) == surface_census(p, shape).connected
            if is_transitive(p, shape):
                transitive.append(idx)
        assert [t.index for t in cumulant(spec, exact=True).terms] == transitive

    def test_empty_word_keeps_its_term(self):
        spec = MomentSpec(WordShape(()), (), 4, 3)
        res = cumulant(spec, exact=True)
        assert res.total == 1 and len(res.terms) == 1


class TestWigner:
    def test_closed_form_identity(self):
        n = 5
        shape = WordShape((2,), (1, 1), ("Z", "Z"))
        spec = MomentSpec(
            shape, (Matrix.identity(n),) * 2, n, n, wigner=frozenset({"Z"})
        )
        assert moment(spec, exact=True).total == Fraction(n + 1, 2 * n)

    def test_closed_form_random(self):
        rng = random.Random(20)
        n = 3
        mats = [
            Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            for _ in range(2)
        ]
        shape = WordShape((2,), (1, 1), ("Z", "Z"))
        spec = MomentSpec(shape, tuple(mats), n, n, wigner=frozenset({"Z"}))
        a1, a2 = (m.as_array() for m in mats)
        closed = (np.trace(a1) * np.trace(a2) + np.trace(a1 @ a2.T)) / (2 * n * n)
        assert math.isclose(float(moment(spec, exact=True).total), closed)

    def test_odd_wigner_word_is_zero(self):
        n = 3
        shape = WordShape((3,), (1, 1, 1), ("Z",) * 3)
        spec = MomentSpec(
            shape, (Matrix.identity(n),) * 3, n, n, wigner=frozenset({"Z"})
        )
        assert moment(spec, exact=True).total == 0

    def test_term_shares_sum_to_total(self):
        n = 3
        shape = WordShape((2,), (1, 1), ("Z", "Z"))
        spec = MomentSpec(
            shape, (Matrix.identity(n),) * 2, n, n, wigner=frozenset({"Z"})
        )
        res = moment(spec, exact=True)
        # 1 pairing x 4 sign assignments
        assert len(res.terms) == 4
        assert {t.epsilon for t in res.terms} == {
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        }


class TestModels:
    def test_rank_one_gram_equals_single_family(self):
        base = identity_spec((4,), 3)
        labels = ("G", "H", "G", "H")
        shape = WordShape.alternating((4,), labels)
        tied = MomentSpec(
            shape,
            base.matrices,
            3,
            3,
            gram=Gram(("G", "H"), ((1, 1), (1, 1))),
        )
        assert moment(tied, exact=True).total == moment(base, exact=True).total

    def test_independent_families_kill_odd_cross_counts(self):
        # pairing a G with an H always carries gram weight 0
        shape = WordShape.alternating((2,), ("G", "H"))
        spec = MomentSpec(shape, (Matrix.identity(2),) * 2, 2, 2)
        assert moment(spec, exact=True).total == 0

    def test_q_zero_equals_noncrossing_sum(self):
        spec_q0 = identity_spec((6,), 2, q=0)
        spec_q1 = identity_spec((6,), 2, q=1)
        res_q1 = moment(spec_q1, exact=True)
        prefactor = Fraction(1, 2 ** -res_q1.prefactor_exponent)
        restricted = prefactor * sum(
            t.value for t in res_q1.terms if is_noncrossing(t.blocks)
        )
        assert moment(spec_q0, exact=True).total == restricted

    def test_q_half_matches_wick(self):
        spec = make_spec((4,), (-1, 1, -1, 1), 2, 2, seed=15, q=Fraction(1, 2))
        assert moment(spec, exact=True).total == wick_oracle(spec)


class TestExactReduction:
    """Exact mode sums integer numerators over one common denominator; the
    total is still the prefactor times the sum of the term values, and
    every value and weight is a Fraction."""

    @pytest.mark.parametrize(
        "statistic, spec",
        [
            (moment, make_spec((10,), (-1, 1) * 5, 3, 2, seed=31, q=Fraction(1, 2))),
            (
                moment,
                make_spec(
                    (10,), (-1, 1) * 5, 3, 2, seed=32, labels=("X", "X", "Y") * 3 + ("X",),
                    gram=Gram(("X", "Y"), ((1, Fraction(1, 2)), (Fraction(1, 2), 1))),
                ),
            ),
            (
                moment,
                make_spec(
                    (8,), (-1, 1, 1, -1, 1, -1, 1, 1), 3, 3, seed=33,
                    labels=("X", "X", "Z", "X", "X", "X", "X", "Z"), wigner={"Z"},
                ),
            ),
            (cumulant, make_spec((4, 6), (-1, 1) * 5, 3, 2, seed=34)),
        ],
        ids=["q-half", "gram-half", "wigner", "cumulant"],
    )
    def test_total_is_prefactor_times_term_sum(self, statistic, spec):
        res = statistic(spec, exact=True)
        m, r = spec.shape.m, spec.shape.r
        prefactor = Fraction(1, spec.n_dim ** (m // 2 + r))
        assert res.total == prefactor * sum(t.value for t in res.terms)
        assert type(res.total) is Fraction and res.terms
        assert all(type(t.value) is Fraction and type(t.weight) is Fraction for t in res.terms)

    def test_fraction_slots_stay_exact(self):
        spec = make_spec((6,), (-1, 1) * 3, 2, 2, seed=35, q=Fraction(1, 3))
        halves = tuple(
            Matrix([[Fraction(x, 2) for x in row] for row in mat.entries])
            for mat in spec.matrices
        )
        halved = MomentSpec(spec.shape, halves, 2, 2, q=Fraction(1, 3))
        res, doubled = moment(halved, exact=True), moment(spec, exact=True)
        assert res.total * 2**6 == doubled.total
        assert [t.value * 2**6 for t in res.terms] == [t.value for t in doubled.terms]
        assert all(type(t.value) is Fraction for t in res.terms)


class TestLeadingTerms:
    def test_single_pair_word(self):
        res = moment(identity_spec((2,), 3), exact=True)
        lead = leading_terms(res)
        assert len(lead) == 1 and lead[0].surface.all_spheres

    def test_moment_leading_are_all_spheres(self):
        res = moment(identity_spec((4, 2), 2), exact=True)
        for t in leading_terms(res):
            assert t.order_exponent == 0 and t.surface.all_spheres

    def test_cumulant_leading_are_connected_spheres(self):
        res = cumulant(identity_spec((2, 2), 2), exact=True)
        lead = leading_terms(res)
        assert lead
        for t in lead:
            assert t.surface.connected and t.surface.components[0].chi == 2

    def test_bound_follows_the_statistic(self):
        # The same word: its moment's leading terms are the all-sphere
        # pairings, its cumulant's the connected spheres.
        spec = identity_spec((2, 2), 2)
        assert len(leading_terms(moment(spec, exact=True))) == 1
        assert len(leading_terms(cumulant(spec, exact=True))) == 2


class TestSubspecAndConcat:
    def test_subspec_extracts_factor(self):
        spec = make_spec((2, 4), (-1, 1, -1, 1, -1, 1), 2, 2, seed=16)
        sub = subspec(spec, [2])
        assert sub.shape.lengths == (4,)
        assert sub.matrices == spec.matrices[2:]

    def test_subspec_repeats_for_diagonal(self):
        spec = make_spec((2,), (-1, 1), 2, 2, seed=17)
        dup = subspec(spec, [1, 1])
        assert dup.shape.lengths == (2, 2)
        assert dup.matrices[0] is dup.matrices[2]

    def test_subspec_keeps_only_wigner_families_of_chosen_factors(self):
        shape = WordShape((2, 2), (-1, 1, 1, 1), ("X", "X", "Z", "Z"))
        spec = MomentSpec(
            shape, (Matrix.identity(2),) * 4, 2, 2, wigner={"Z"}
        )
        assert subspec(spec, [1]).wigner == frozenset()
        assert subspec(spec, [2]).wigner == {"Z"}
        assert subspec(spec, [1, 2]).wigner == {"Z"}


class TestClt:
    def test_symmetric_and_exact_for_quadratic_word(self):
        n = 6
        f = identity_spec((2,), n)
        rep = clt_report(f, exact=True)
        # Var tr(X'X) = 2 M / N^3 exactly, so N^2 k2 = 2 at M = N
        assert rep.full[0][0] == 2
        assert rep.leading[0][0] == 2

    def test_symmetry_across_factors(self):
        rep = clt_report(identity_spec((2, 4), 4), exact=True)
        assert rep.full[0][1] == rep.full[1][0]

    def test_independent_families_zero_off_diagonal(self):
        n = 4
        shape = WordShape.alternating((2, 2), ("G", "G", "H", "H"))
        gram = Gram.identity(("G", "H"))
        spec = MomentSpec(shape, (Matrix.identity(n),) * 4, n, n, gram=gram)
        rep = clt_report(spec, exact=True)
        assert rep.full[0][1] == 0 and rep.full[0][0] == 2

    def test_quartic_gap_shrinks_by_half_per_doubling(self):
        gaps = []
        for n in (8, 16, 32):
            f = identity_spec((4,), n)
            rep = clt_report(f)
            gaps.append(abs(rep.full[0][0] - rep.leading[0][0]))
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[1] <= gaps[0] / 2 + 1e-9
        assert gaps[2] <= gaps[1] / 2 + 1e-9


class TestBudget:
    def test_m18_refused_before_enumerating(self, monkeypatch):
        # 17!! * 18 = 620,270,650 exceeds the default budget of 10^8.
        def never(m):
            raise AssertionError("enumerated past the budget")

        monkeypatch.delenv("WTE_BUDGET", raising=False)
        monkeypatch.setattr(wte.engine, "enumerate_pairings", never)
        # The kernel builds its pairing table here; the check must come first.
        monkeypatch.setattr(wte.engine, "_pairing_table", lambda m, start, stop: never(m))
        spec = identity_spec((18,), 1)
        for fn in (moment, cumulant):
            with pytest.raises(BudgetError, match="budget"):
                fn(spec)

    def test_m16_within_default_budget(self, monkeypatch):
        monkeypatch.delenv("WTE_BUDGET", raising=False)
        wte.engine._check_budget(16)  # 15!! * 16 = 32,432,400

    def test_wigner_letters_double_the_work(self, monkeypatch):
        # (2-1)!! * 2 * 2^2 = 8 for tr(Z D1 Z D2) with Z Wigner
        spec = identity_spec((2,), 2, labels=("Z", "Z"), wigner={"Z"})
        monkeypatch.setenv("WTE_BUDGET", "7")
        with pytest.raises(BudgetError):
            moment(spec)
        monkeypatch.setenv("WTE_BUDGET", "8")
        assert len(moment(spec).terms) == 4  # one pairing, four sign choices

    @pytest.mark.parametrize("value", ["abc", "1e9"])
    def test_budget_that_is_not_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("WTE_BUDGET", value)
        with pytest.raises(ValueError) as info:
            moment(identity_spec((2,), 2))
        assert str(info.value) == f"WTE_BUDGET takes an integer, got {value!r}"


class TestTermReport:
    """``TermReport`` sets its slots through their descriptors and keeps
    the frozen dataclass's behaviour."""

    def term(self):
        return moment(make_spec((2, 2), (1, -1, -1, 1), 3, 2), exact=True).terms[1]

    def test_frozen(self):
        t = self.term()
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.value = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.weight

    def test_fields_replace_and_astuple(self):
        t = self.term()
        names = [f.name for f in dataclasses.fields(TermReport)]
        assert names == ["index", "blocks", "weight", "cycles", "surface", "order_exponent",
                         "value", "epsilon"]
        assert dataclasses.astuple(t)[0] == t.index and t.epsilon is None
        u = dataclasses.replace(t, value=Fraction(1, 3), epsilon=(1, -1, -1, 1))
        assert (u.value, u.epsilon, u.cycles) == (Fraction(1, 3), (1, -1, -1, 1), t.cycles)
        assert TermReport(*(getattr(t, name) for name in names)) == t

    def test_equality_hash_and_pickle(self):
        t, again = self.term(), self.term()
        assert t == again and hash(t) == hash(again) and t is not again
        assert t != dataclasses.replace(t, index=t.index + 1)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and type(back) is TermReport
        assert repr(back) == repr(t) and repr(t).startswith("TermReport(index=")

    def test_signature(self):
        params = inspect.signature(TermReport).parameters
        assert list(params)[-1] == "epsilon" and params["epsilon"].default is None
        assert all(p.default is inspect.Parameter.empty for p in list(params.values())[:-1])

    def test_wrong_argument_count(self):
        t = self.term()
        fields = dataclasses.astuple(t)
        with pytest.raises(TypeError):
            TermReport(*fields[:6])
        with pytest.raises(TypeError):
            TermReport(*fields, None)
        with pytest.raises(TypeError):
            TermReport(*fields[:7], colour=1)


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    before = gc.isenabled()
    yield
    if before:
        gc.enable()
    else:
        gc.disable()


class TestImports:
    def test_float_trace_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs every tracing process (and each worker) an import.
        def loaded(code):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys\n{code}\nprint('numpy.ma' in sys.modules)"],
                capture_output=True, text=True, timeout=120, check=True,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wte.__file__))),
            )
            return proc.stdout.split()[-1]

        if loaded("import numpy") == "True":
            pytest.skip("import numpy loads numpy.ma on this numpy")
        code = (
            "from wte.engine import MomentSpec, moment\n"
            "from wte.gluing import WordShape\n"
            "from wte.matrices import Matrix\n"
            "d = Matrix([[1, 2, 0], [0, 1, 3], [2, 0, 1]])\n"
            "spec = MomentSpec(WordShape.alternating((4, 6)), (d,) * 10, 3, 3)\n"
            "print(len(moment(spec, threads=1).terms))"
        )
        assert loaded(code) == "False"


class TestCollector:
    """The library leaves the cyclic collector as the caller set it."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("fn", [moment, cumulant])
    def test_state_is_the_callers(self, monkeypatch, collector, fn, enabled, threads):
        # 945 pairings in chunks of 32 are 30 chunks, which two workers share.
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 32)
        monkeypatch.setattr(wte.engine, "_cpus", lambda: 2)
        seen, assemble = [], wte.engine._Sum.assemble
        monkeypatch.setattr(
            wte.engine._Sum, "assemble",
            lambda job, c: seen.append(gc.isenabled()) or assemble(job, c),
        )
        (gc.enable if enabled else gc.disable)()
        res = fn(make_spec((4, 6), (1, -1) * 5, 3, 2), threads=threads)
        assert wte.engine._workers(threads, 30) == threads
        assert res.terms and gc.isenabled() is enabled
        assert len(seen) == 30 and set(seen) == {enabled}
        assert multiprocessing.active_children() == []
