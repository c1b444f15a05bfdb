import itertools

import pytest
from hypothesis import given, strategies as st

from partitions import set_partitions
from wte.perm import (
    Pairing,
    SignedPermutation,
    compose,
    crossings,
    cycle_string,
    cycles,
    enumerate_pairings,
    inverse,
    orbits,
    pairing_count,
    signed_domain,
)


def signed_perms(max_m=6):
    """Random signed permutations as shuffled image tuples."""

    def build(m, perm_idx):
        dom = list(signed_domain(m))
        images = [dom[i] for i in perm_idx]
        return SignedPermutation(m, tuple(images))

    return st.integers(min_value=0, max_value=max_m).flatmap(
        lambda m: st.permutations(list(range(2 * m))).map(
            lambda idx: build(m, idx)
        )
    )


def pairings(max_half=4):
    return st.integers(min_value=1, max_value=max_half).flatmap(
        lambda h: st.sampled_from(list(enumerate_pairings(2 * h)))
    )


class TestSignedPermutation:
    def test_identity_application(self):
        e = SignedPermutation.identity(3)
        assert all(e(k) == k for k in e.domain())

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            SignedPermutation(1, (1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 images"):
            SignedPermutation(2, (1, -1, 2))

    def test_compose_identity_law(self):
        s = SignedPermutation.from_cycles(3, [(1, 2, -3)])
        e = SignedPermutation.identity(3)
        assert compose(e, s) == s
        assert compose(s, e) == s

    def test_compose_sign_flip_is_involution(self):
        delta = SignedPermutation.from_cycles(2, [(1, -1), (2, -2)])
        assert compose(delta, delta) == SignedPermutation.identity(2)

    def test_compose_mixed_signed(self):
        # Swap of the pairs {1,2}/{-1,-2} composed after the global flip:
        # hand composition gives 1 -> -2, -1 -> 2, 2 -> -1, -2 -> 1.
        s = SignedPermutation.from_cycles(2, [(1, 2), (-1, -2)])
        t = SignedPermutation.from_cycles(2, [(1, -1), (2, -2)])
        st_ = compose(s, t)
        assert (st_(1), st_(-1), st_(2), st_(-2)) == (-2, 2, -1, 1)

    def test_compose_domain_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            compose(SignedPermutation.identity(2), SignedPermutation.identity(3))

    def test_inverse_three_cycle(self):
        s = SignedPermutation.from_cycles(3, [(1, 2, 3)])
        assert inverse(s) == SignedPermutation.from_cycles(3, [(1, 3, 2)])

    def test_conjugate_by_identity(self):
        s = SignedPermutation.from_cycles(2, [(1, -2)])
        t = SignedPermutation.identity(2)
        assert compose(t, compose(s, inverse(t))) == s

    def test_conjugating_flip_by_pairing_gives_l_minus_k_cycles(self):
        # p delta p has cycles (l, -k) for every block {k, l}.
        m = 4
        pairing = Pairing.from_blocks(m, [(1, 3), (2, 4)])
        p = SignedPermutation(m, tuple(range(-m, 0)) + pairing.partner)
        delta = SignedPermutation.from_cycles(m, [(k, -k) for k in range(1, m + 1)])
        conj = compose(p, compose(delta, inverse(p)))
        for k in range(1, m + 1):
            l = p(k)
            assert conj(l) == -k
            assert conj(-k) == l

    @given(signed_perms())
    def test_inverse_round_trip(self, s):
        assert compose(s, inverse(s)) == SignedPermutation.identity(s.m)
        assert compose(inverse(s), s) == SignedPermutation.identity(s.m)

    @given(signed_perms(), signed_perms())
    def test_compose_is_right_to_left(self, s, t):
        if s.m != t.m:
            return
        st_ = compose(s, t)
        assert all(st_(k) == s(t(k)) for k in s.domain())


class TestCycles:
    def test_identity_cycles(self):
        assert cycles(SignedPermutation.identity(2)) == ((1,), (-1,), (2,), (-2,))

    def test_two_cycles(self):
        s = SignedPermutation.from_cycles(2, [(1, 2), (-1, -2)])
        assert cycles(s) == ((1, 2), (-1, -2))

    def test_rotation_starts_at_smallest_abs(self):
        s = SignedPermutation.from_cycles(3, [(3, -1, 2)])
        assert (-1, 2, 3) in cycles(s)
        assert cycles(s) == ((1,), (-1, 2, 3), (-2,), (-3,))

    def test_positive_preferred_on_tie(self):
        s = SignedPermutation.from_cycles(1, [(1, -1)])
        assert cycles(s) == ((1, -1),)

    def test_cycle_string(self):
        s = SignedPermutation.from_cycles(2, [(1, -2)])
        assert cycle_string(cycles(s)) == "(1,-2)(-1)(2)"

    @given(signed_perms())
    def test_cycles_partition_domain_and_advance(self, s):
        cs = cycles(s)
        flat = [k for c in cs for k in c]
        assert sorted(flat) == sorted(s.domain())
        for c in cs:
            for i, k in enumerate(c):
                assert s(k) == c[(i + 1) % len(c)]

    @given(signed_perms())
    def test_cycles_start_at_least_element_in_order(self, s):
        def key(k):
            return (abs(k), k < 0)

        cs = cycles(s)
        assert all(c[0] == min(c, key=key) for c in cs)
        assert [key(c[0]) for c in cs] == sorted(key(c[0]) for c in cs)


class TestPairings:
    def test_m2(self):
        ps = list(enumerate_pairings(2))
        assert len(ps) == 1 and ps[0].blocks() == ((1, 2),)

    def test_m4_order(self):
        ps = [p.blocks() for p in enumerate_pairings(4)]
        assert ps == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_m6_distinct(self):
        ps = [p.blocks() for p in enumerate_pairings(6)]
        assert len(ps) == 15 == len(set(ps))

    def test_odd_is_empty(self):
        assert list(enumerate_pairings(5)) == []
        assert pairing_count(5) == 0

    def test_m0_single_empty(self):
        ps = list(enumerate_pairings(0))
        assert len(ps) == 1 and ps[0].blocks() == ()

    @pytest.mark.parametrize("m", range(0, 13, 2))
    def test_counts_double_factorial_no_duplicates(self, m):
        seen = {p.partner for p in enumerate_pairings(m)}
        assert len(seen) == pairing_count(m)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_each_is_fixed_point_free_involution(self, m):
        for p in enumerate_pairings(m):
            for k in range(1, m + 1):
                assert p(p(k)) == k
                assert p(k) != k

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError, match="involution"):
            Pairing(2, (1, 2))


class TestCrossings:
    def test_disjoint(self):
        assert crossings(Pairing.from_blocks(4, [(1, 2), (3, 4)])) == 0

    def test_single(self):
        assert crossings(Pairing.from_blocks(4, [(1, 3), (2, 4)])) == 1

    def test_three_blocks(self):
        assert crossings(Pairing.from_blocks(6, [(1, 4), (2, 6), (3, 5)])) == 2

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_matches_brute_force(self, m):
        for p in enumerate_pairings(m):
            blocks = p.blocks()
            brute = sum(
                1
                for (i, j), (k, l) in itertools.combinations(blocks, 2)
                if i < k < j < l or k < i < l < j
            )
            assert crossings(p) == brute

    @given(pairings())
    def test_reflection_invariance(self, p):
        m = p.m
        reflected = Pairing.from_blocks(
            m, [(m + 1 - b, m + 1 - a) for a, b in p.blocks()]
        )
        assert crossings(p) == crossings(reflected)


class TestOrbits:
    def test_identity_gives_singletons(self):
        part = orbits([SignedPermutation.identity(2)], (1, 2, -1, -2))
        assert part == ((1,), (2,), (-1,), (-2,))

    def test_pairing_links_cycles(self):
        gamma = SignedPermutation.from_cycles(4, [(1, 2), (3, 4)])
        p = Pairing.from_blocks(4, [(1, 3), (2, 4)])
        assert orbits([gamma, p], (1, 2, 3, 4)) == ((1, 2, 3, 4),)

    def test_parallel_pairing_keeps_two_orbits(self):
        gamma = SignedPermutation.from_cycles(4, [(1, 2), (3, 4)])
        p = Pairing.from_blocks(4, [(1, 2), (3, 4)])
        assert orbits([gamma, p], (1, 2, 3, 4)) == ((1, 2), (3, 4))

    def test_gamma_cycle_stays_in_one_orbit(self):
        gamma = SignedPermutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
        for p in enumerate_pairings(6):
            part = orbits([gamma, p], tuple(range(1, 7)))
            assert any({1, 2, 3} <= set(b) for b in part)
            assert any({4, 5, 6} <= set(b) for b in part)


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
    def test_bell_counts(self, n, bell):
        parts = list(set_partitions(n))
        assert len(parts) == bell == len(set(parts))

    def test_blocks_cover(self):
        for part in set_partitions(4):
            flat = sorted(e for b in part for e in b)
            assert flat == [1, 2, 3, 4]
