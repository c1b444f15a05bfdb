import random

import pytest

from wte.gluing import (
    MirrorPropertyError,
    WordShape,
    back_rotation,
    front_rotation,
    lift_pairing,
    particular_cycles,
    sign_flip,
    slot_dimensions,
    surface_census,
    transpose_flip,
    vertex_permutation,
)
from wte.perm import (
    Pairing,
    SignedPermutation,
    compose,
    cycle_string,
    cycles,
    enumerate_pairings,
    inverse,
    orbits,
    signed_domain,
)

WORKED_SHAPE = WordShape.alternating((6, 4))
WORKED_PAIRING = Pairing.from_blocks(10, [(1, 9), (2, 7), (3, 4), (5, 10), (6, 8)])


class TestWordShape:
    def test_basic_fields(self):
        s = WordShape((2, 3))
        assert s.m == 5 and s.r == 2
        assert s.epsilon == (1,) * 5
        assert s.labels == ("X",) * 5

    def test_alternating_pattern(self):
        s = WordShape.alternating((6, 4))
        assert s.epsilon == tuple(-1 if k % 2 else 1 for k in range(1, 11))

    def test_alternating_rejects_odd_lengths(self):
        with pytest.raises(ValueError, match="even"):
            WordShape.alternating((3,))

    def test_rejects_empty_factor(self):
        with pytest.raises(ValueError, match="at least one letter"):
            WordShape((2, 0))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            WordShape((2,), (1, 2))

    def test_zero_factors_allowed(self):
        s = WordShape(())
        assert s.m == 0 and s.r == 0


class TestRotations:
    def test_front_rotation_cycles(self):
        g = front_rotation(WORKED_SHAPE)
        assert [g(k) for k in (1, 5, 6, 7, 10)] == [2, 6, 1, 8, 7]
        assert all(g(-k) == -k for k in range(1, 11))

    def test_back_rotation_cycles(self):
        g = back_rotation(WORKED_SHAPE)
        assert [g(-k) for k in (1, 5, 6, 7, 10)] == [-2, -6, -1, -8, -7]
        assert all(g(k) == k for k in range(1, 11))

    def test_flip_conjugation_identity(self):
        # flipping signs turns the inverse front rotation into the inverse
        # back rotation, as maps
        delta = sign_flip(10)
        lhs = compose(delta, compose(inverse(front_rotation(WORKED_SHAPE)), delta))
        assert lhs == inverse(back_rotation(WORKED_SHAPE))

    def test_single_factor(self):
        g = front_rotation(WordShape((2,)))
        assert g(1) == 2 and g(2) == 1


class TestTransposeFlip:
    def test_alternating_word(self):
        f = transpose_flip(WORKED_SHAPE)
        flipped = [k for k in range(1, 11) if f(k) == -k]
        assert flipped == [1, 3, 5, 7, 9]

    def test_all_plain_is_identity(self):
        f = transpose_flip(WordShape((2,), (1, 1)))
        assert f == SignedPermutation.identity(2)

    def test_all_transposed(self):
        f = transpose_flip(WordShape((2,), (-1, -1)))
        assert f == SignedPermutation.from_cycles(2, [(1, -1), (2, -2)])


class TestLiftPairing:
    def test_worked_example(self):
        ph = lift_pairing(WORKED_PAIRING, transpose_flip(WORKED_SHAPE))
        assert (
            cycle_string(cycles(ph))
            == "(1,-9)(-1,9)(2,7)(-2,-7)(3,4)(-3,-4)(5,10)(-5,-10)(6,-8)(-6,8)"
        )

    def test_plain_pair(self):
        ph = lift_pairing(Pairing.from_blocks(2, [(1, 2)]), SignedPermutation.identity(2))
        assert cycle_string(cycles(ph)) == "(1,-2)(-1,2)"

    def test_one_transposed_pair(self):
        flip = SignedPermutation.from_cycles(2, [(1, -1)])
        ph = lift_pairing(Pairing.from_blocks(2, [(1, 2)]), flip)
        assert cycle_string(cycles(ph)) == "(1,2)(-1,-2)"

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lift_pairing(Pairing.from_blocks(2, [(1, 2)]), SignedPermutation.identity(4))

    def test_rejects_non_flip(self):
        with pytest.raises(ValueError, match="flip"):
            lift_pairing(
                Pairing.from_blocks(2, [(1, 2)]),
                SignedPermutation.from_cycles(2, [(1, 2)]),
            )

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_explicit_composition(self, m):
        # dual route: the closed form equals flip . p . sign . p . flip
        rng = random.Random(m)
        delta = sign_flip(m)
        for p in enumerate_pairings(m):
            eps = tuple(rng.choice((1, -1)) for _ in range(m))
            shape = WordShape((m,), eps)
            flip = transpose_flip(shape)
            # p on the signed domain, fixing every negative element
            signed_p = SignedPermutation(m, tuple(range(-m, 0)) + p.partner)
            expected = compose(
                flip, compose(signed_p, compose(delta, compose(signed_p, flip)))
            )
            assert lift_pairing(p, flip) == expected

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_lift_properties(self, m):
        rng = random.Random(100 + m)
        delta = sign_flip(m)
        for p in enumerate_pairings(m):
            eps = tuple(rng.choice((1, -1)) for _ in range(m))
            ph = lift_pairing(p, transpose_flip(WordShape((m,), eps)))
            for k in ph.domain():
                assert ph(ph(k)) == k
                assert ph(k) != k
                assert abs(ph(k)) == p(abs(k))
            assert compose(delta, compose(ph, delta)) == ph


class TestVertexPermutation:
    def test_worked_example(self):
        v = vertex_permutation(WORKED_PAIRING, WORKED_SHAPE)
        assert (
            cycle_string(cycles(v))
            == "(1,7,-5,-9)(-1,9,5,-7)(2,4,10)(-2,-10,-4)(3)(-3)(6,-8)(-6,8)"
        )

    def test_single_wishart_pair_is_identity(self):
        v = vertex_permutation(Pairing.from_blocks(2, [(1, 2)]), WordShape.alternating((2,)))
        assert v == SignedPermutation.identity(2)

    def test_self_mirror_identity(self):
        # reversing all cycles and negating gives the permutation back
        delta = sign_flip(WORKED_SHAPE.m)
        v = vertex_permutation(WORKED_PAIRING, WORKED_SHAPE)
        assert compose(delta, compose(inverse(v), delta)) == v

    @pytest.mark.parametrize("lengths", [(4,), (2, 2), (6,), (2, 4)])
    def test_mirror_cycle_multiset(self, lengths):
        rng = random.Random(sum(lengths))
        m = sum(lengths)
        for p in enumerate_pairings(m):
            eps = tuple(rng.choice((1, -1)) for _ in range(m))
            v = vertex_permutation(p, WordShape(lengths, eps))
            cs = set(cycles(v))
            for c in cs:
                mirror = tuple(-x for x in reversed(c))
                rotations = {mirror[i:] + mirror[:i] for i in range(len(mirror))}
                assert rotations & cs


class TestParticularCycles:
    def test_worked_example(self):
        v = vertex_permutation(WORKED_PAIRING, WORKED_SHAPE)
        assert particular_cycles(v) == ((1, 7, -5, -9), (2, 4, 10), (3,), (6, -8))

    def test_identity_case(self):
        v = vertex_permutation(Pairing.from_blocks(2, [(1, 2)]), WordShape.alternating((2,)))
        assert particular_cycles(v) == ((1,), (2,))

    def test_half_count_and_support(self):
        for p in enumerate_pairings(6):
            v = vertex_permutation(p, WordShape((6,), (1, -1, 1, 1, -1, -1)))
            parts = particular_cycles(v)
            assert 2 * len(parts) == len(cycles(v))
            support = sorted(abs(k) for c in parts for k in c)
            assert support == list(range(1, 7))

    def test_mirror_violation_raises(self):
        with pytest.raises(MirrorPropertyError):
            particular_cycles(SignedPermutation.from_cycles(2, [(1, 2)]))
        # Half the cycles start positive, but (-1,-2,-3) is not the mirror
        # of (1,2,3): that would be (-1,-3,-2).
        with pytest.raises(MirrorPropertyError):
            particular_cycles(SignedPermutation.from_cycles(3, [(1, 2, 3), (-1, -2, -3)]))


class TestSurfaceCensus:
    def test_single_pair_sphere(self):
        rep = surface_census(Pairing.from_blocks(2, [(1, 2)]), WordShape.alternating((2,)))
        assert rep.order_exponent == 0
        (comp,) = rep.components
        assert (comp.vertices, comp.edges, comp.faces) == (2, 1, 1)
        assert comp.chi == 2 and comp.orientable and comp.classification == "sphere"

    def test_worked_example_projective_plane(self):
        rep = surface_census(WORKED_PAIRING, WORKED_SHAPE)
        assert rep.connected
        (comp,) = rep.components
        assert (comp.vertices, comp.edges, comp.faces) == (4, 5, 2)
        assert comp.chi == 1 and not comp.orientable
        assert comp.cross_caps == 1 and comp.classification == "crosscap-1"
        assert rep.order_exponent == -3

    def test_untwisted_cross_factor_pairing_is_orientable(self):
        # a twisted block between two different faces can still glue to a
        # sphere: flip one face over
        shape = WordShape.alternating((2, 2))
        rep = surface_census(Pairing.from_blocks(4, [(1, 3), (2, 4)]), shape)
        (comp,) = rep.components
        assert comp.orientable and comp.chi == 2

    def test_disconnected_pairing(self):
        shape = WordShape.alternating((2, 2))
        rep = surface_census(Pairing.from_blocks(4, [(1, 2), (3, 4)]), shape)
        assert len(rep.components) == 2
        assert rep.all_spheres and rep.order_exponent == 0

    @pytest.mark.parametrize(
        "lengths,blocks,factors",
        [
            ((2, 2), [(1, 3), (2, 4)], [(1, 2)]),
            ((2, 2), [(1, 2), (3, 4)], [(1,), (2,)]),
            ((6, 4), WORKED_PAIRING.blocks(), [(1, 2)]),
        ],
        ids=["connecting", "non_connecting", "worked_example_connects_both_factors"],
    )
    def test_components_partition_the_factors(self, lengths, blocks, factors):
        m = sum(lengths)
        rep = surface_census(Pairing.from_blocks(m, blocks), WordShape(lengths, (1,) * m))
        assert [c.factors for c in rep.components] == factors

    def test_klein_bottle_from_double_twist(self):
        # single factor X X X X word, pairing (1,3)(2,4) with no transposes:
        # both gluings twisted and crossing
        shape = WordShape((4,), (1, 1, 1, 1))
        rep = surface_census(Pairing.from_blocks(4, [(1, 3), (2, 4)]), shape)
        (comp,) = rep.components
        assert not comp.orientable
        assert comp.chi in (0, 1)

    @pytest.mark.parametrize("lengths", [(4,), (2, 2), (4, 2), (2, 2, 2)])
    def test_sweep_invariants(self, lengths):
        m = sum(lengths)
        r = len(lengths)
        rng = random.Random(m * r)
        for p in enumerate_pairings(m):
            eps = tuple(rng.choice((1, -1)) for _ in range(m))
            shape = WordShape(lengths, eps)
            rep = surface_census(p, shape)
            assert sum(c.faces for c in rep.components) == r
            assert sum(c.edges for c in rep.components) == m // 2
            assert rep.order_exponent == rep.vertex_count - m // 2 - r
            for comp in rep.components:
                assert comp.chi <= 2
                assert comp.chi == comp.vertices - comp.edges + comp.faces
                if comp.chi == 2:
                    assert comp.orientable
                if comp.orientable:
                    assert comp.chi % 2 == 0
            if rep.order_exponent == 0:
                assert rep.all_spheres

    @pytest.mark.parametrize(
        "lengths",
        [
            (2,), (1, 1),
            (4,), (2, 2), (1, 3), (1, 1, 2), (1, 1, 1, 1),
            (6,), (4, 2), (2, 2, 2), (1, 2, 3), (3, 1, 1, 1), (1, 1, 1, 1, 1, 1),
            (8,), (4, 4), (2, 6), (3, 1, 4), (2, 2, 2, 2), (1, 2, 1, 3, 1),
            (1,) * 8,
        ],
    )
    def test_matches_orbit_reference(self, lengths):
        # Independent route: the components are the orbits of the factor
        # rotation and the pairing on the letters, and one is orientable
        # iff the cover orbit of each of its letters k avoids -k.
        m = sum(lengths)
        rng = random.Random(m * len(lengths))
        for p in enumerate_pairings(m):
            eps = tuple(rng.choice((1, -1)) for _ in range(m))
            shape = WordShape(lengths, eps)
            rep = surface_census(p, shape)
            base = orbits([front_rotation(shape), p], tuple(range(1, m + 1)))
            cover = orbits(
                [
                    front_rotation(shape),
                    back_rotation(shape),
                    lift_pairing(p, transpose_flip(shape)),
                ],
                signed_domain(m),
            )
            parts = particular_cycles(vertex_permutation(p, shape))
            ranges = shape.factor_ranges()
            letters = [
                tuple(
                    k for f in c.factors for k in range(ranges[f - 1][0], ranges[f - 1][1] + 1)
                )
                for c in rep.components
            ]
            assert tuple(letters) == base
            cover_orbit = {k: orb for orb in cover for k in orb}
            for comp, comp_letters in zip(rep.components, letters):
                assert comp.edges == len(comp_letters) // 2
                for k in comp_letters:
                    assert comp.orientable == (cover_orbit[k] != cover_orbit[-k])
                inside = [c for c in parts if {abs(k) for k in c} <= set(comp_letters)]
                assert comp.vertices == len(inside)
            assert rep.vertex_count == len(parts)

    def test_empty_word(self):
        rep = surface_census(Pairing(0, ()), WordShape(()))
        assert rep.components == () and rep.order_exponent == 0


class TestSlotDimensions:
    def test_alternating_profile(self):
        dims = slot_dimensions(WordShape.alternating((2,)), 3, 2)
        assert dims == ((2, 2), (3, 3))

    def test_plain_word_rectangular(self):
        # X D1 X D2 with X of size m_dim x n_dim needs n_dim x m_dim slots
        dims = slot_dimensions(WordShape((2,), (1, 1)), 3, 2)
        assert dims == ((3, 2), (3, 2))

    def test_mixed_word(self):
        # X D1 X' D2 X D3 with X = 4x5: chain 4x5 . D1 . 5x4 . D2 . 4x5 . D3
        dims = slot_dimensions(WordShape((3,), (1, -1, 1)), 5, 4)
        assert dims == ((5, 5), (4, 4), (5, 4))
