"""The chunked pairing-sum kernel against the per-pairing specification:
``vertex_permutation``, ``particular_cycles``, ``surface_census``,
``is_transitive``, ``crossings``, ``pairing_weight`` and ``trace_along``."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import wte.engine
from wte.engine import (
    MomentSpec,
    _combinatorics,
    _crossings,
    _pairing_table,
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
        census = surface_census(p, shape, particular=parts)
        weight = pairing_weight(p, spec) * 1.0
        value = weight if weight == 0 else weight * trace_along(parts, spec.matrices)
        terms.append((idx, p.blocks(), weight, parts, census, census.order_exponent, value))
    scale = float(spec.n_dim) ** (-(shape.m // 2) - shape.r)
    return scale * math.fsum(t[-1] for t in terms), terms


def as_rows(result):
    return [
        (t.index, t.blocks, t.weight, t.cycles, t.surface, t.order_exponent, t.value)
        for t in result.terms
    ]


class TestPairingTable:
    @pytest.mark.parametrize("m", [0, 2, 4, 6, 8, 10])
    def test_whole_table_is_canonical_order(self, m):
        table = _pairing_table(m, 0, pairing_count(m)).tolist()
        assert [tuple(row) for row in table] == [p.partner for p in enumerate_pairings(m)]

    def test_slices_decode_their_own_indices(self):
        every = [p.partner for p in enumerate_pairings(12)]
        for start, stop in ((0, 1), (4095, 4097), (5000, 5100), (10394, 10395)):
            table = _pairing_table(12, start, stop).tolist()
            assert [tuple(row) for row in table] == every[start:stop]


class TestKernelMatchesSpecification:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_every_pairing(self, shape):
        partner = _pairing_table(shape.m, 0, pairing_count(shape.m))
        gluing = _combinatorics(shape).glue(partner)
        cross = _crossings(partner).tolist()
        for i, p in enumerate(enumerate_pairings(shape.m)):
            parts = particular_cycles(vertex_permutation(p, shape))
            census = surface_census(p, shape)
            assert gluing.cycles(i) == parts
            # Per component: factors, vertices, edges, faces, orientability
            # (so chi); and the order exponent.
            assert gluing.census[i] == census
            assert gluing.census[i].vertex_count == len(parts)
            assert gluing.census[i].connected == is_transitive(p, shape)
            assert cross[i] == crossings(p)

    @pytest.mark.parametrize("shape", SHAPES[::3], ids=lambda s: f"{s.lengths}{s.epsilon}")
    def test_census_rows(self, shape):
        rows = list(census_rows(shape))
        assert len(rows) == pairing_count(shape.m)
        for (idx, blocks, census, cross), p in zip(rows, enumerate_pairings(shape.m)):
            assert blocks == p.blocks()
            assert census == surface_census(p, shape)
            assert cross == crossings(p)
        assert [row[0] for row in rows] == list(range(len(rows)))

    def test_wigner_sign_assignments_across_chunk_seams(self, monkeypatch):
        # Three Wigner letters and 16 terms per chunk: two pairing rows per
        # chunk, each glued under all eight sign assignments.
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 16)
        rng = random.Random(7)
        base = random_shape(rng, 8, labels=("X", "Z", "X", "Z", "X", "X", "Z", "X"))
        n = 2
        spec = MomentSpec(
            base, fraction_matrices(rng, base, n, n), n, n, wigner=frozenset({"Z"})
        )
        res = moment(spec)
        assert len(res.terms) == pairing_count(8) * 8
        pairings = list(enumerate_pairings(8))
        for t in res.terms:
            p = pairings[t.index]
            shape = WordShape(base.lengths, t.epsilon, base.labels)
            parts = particular_cycles(vertex_permutation(p, shape))
            assert t.blocks == p.blocks()
            assert t.cycles == parts
            assert t.surface == surface_census(p, shape)
            expected = pairing_weight(p, spec) * 0.5**3
            assert t.weight == expected
            if expected:
                assert t.value == expected * trace_along(parts, spec.matrices)

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        rng = random.Random(3)
        shape = random_shape(rng, 8)
        spec = MomentSpec(shape, fraction_matrices(rng, shape, 2, 3), 2, 3)
        whole = moment(spec)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 7)
        chunked = moment(spec)
        assert repr(chunked.total) == repr(whole.total)
        assert as_rows(chunked) == as_rows(whole)

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
        plan = _combinatorics(WordShape.alternating((4,)))
        good = _pairing_table(4, 0, pairing_count(4))
        plan.glue(good)
        with pytest.raises(MirrorPropertyError, match=message):
            plan.glue(np.vstack([good, row]))


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
