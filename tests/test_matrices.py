import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wte.gluing import WordShape
from wte.matrices import (
    DimensionError,
    Matrix,
    MatrixFormatError,
    UnboundSlotError,
    bind_matrices,
    parse_bindings,
    parse_gram,
    parse_matrix,
    slot_identity_fill,
    trace_along,
)

from walks import trace_rows


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestMatrix:
    def test_identity(self):
        m = Matrix.identity(3)
        assert m.rows == m.cols == 3
        assert m.entries[0] == (1, 0, 0)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="same length"):
            Matrix([[1, 2], [3]])

    def test_is_exact(self):
        assert Matrix([[1, Fraction(1, 2)]]).is_exact
        assert not Matrix([[1.0, 2]]).is_exact

    def test_transpose(self):
        # Evaluation never builds a transpose; it multiplies these views.
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.as_array(exact=True).T.tolist() == [[1, 4], [2, 5], [3, 6]]
        assert m.as_array().T.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]

    def test_as_array_cached(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.as_array() is m.as_array()
        assert np.array_equal(m.as_array(), [[1.0, 2.0], [3.0, 4.0]])

    def test_exact_view_holds_the_entries(self):
        m = Matrix([[1, Fraction(1, 3)], [2**70, -4]])
        view = m.as_array(exact=True)
        assert view is m.as_array(exact=True) and view.dtype == object
        assert view.tolist() == [[1, Fraction(1, 3)], [2**70, -4]]
        assert type(view[0, 1]) is Fraction and type(view[1, 0]) is int

    def test_int64_view_and_amax(self):
        m = Matrix([[1, -5], [3, 4]])
        assert m.amax == 5
        view = m.as_int64()
        assert view is m.as_int64() and view.dtype == np.int64
        assert view.tolist() == [[1, -5], [3, 4]]
        assert Matrix([[1, Fraction(1, 2)]]).amax is None
        assert Matrix([[1, 2.0]]).amax is None


class TestParseMatrix:
    def test_round_trip(self):
        m = parse_matrix("2 2\n1 2\n3 4\n")
        assert m.entries == ((1, 2), (3, 4))

    def test_fraction_and_float_entries(self):
        m = parse_matrix("1 3\n1/2 2.5 -3\n")
        assert m.entries == ((Fraction(1, 2), 2.5, -3),)

    def test_decimals_are_exact(self):
        m = parse_matrix("1 3\n0.1 1e-3 inf\n")
        assert m.entries == ((Fraction(1, 10), Fraction(1, 1000), math.inf),)
        assert Matrix([m.entries[0][:2]]).is_exact

    def test_zero_denominator_rejected(self):
        with pytest.raises(MatrixFormatError, match="unparseable"):
            parse_matrix("1 1\n1/0\n")

    def test_gram_decimals_are_exact(self):
        gram = parse_gram("# families\nG H\n1 0.5\n0.5 1\n")
        assert gram.labels == ("G", "H")
        assert gram.value("G", "H") == Fraction(1, 2)
        assert isinstance(gram.value("G", "H"), Fraction)

    def test_gram_unparseable_entry_names_the_row(self):
        with pytest.raises(MatrixFormatError, match=r"row 2: unparseable entry in '0\.5 abc'"):
            parse_gram("G H\n1 0.5\n0.5 abc\n")

    def test_comments_and_blanks_skipped(self):
        m = parse_matrix("# demo\n\n1 1\n7\n")
        assert m.entries == ((7,),)

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="rows cols"):
            parse_matrix("x y\n")

    def test_missing_rows(self):
        with pytest.raises(MatrixFormatError, match="expected 2 rows"):
            parse_matrix("2 2\n1 2\n")

    def test_wrong_width(self):
        with pytest.raises(MatrixFormatError, match="expected 2 entries"):
            parse_matrix("1 2\n1 2 3\n")


class TestMatrixSet:
    # A word's slot matrices are a plain tuple.  Signed slots are read only
    # by trace_along, so these check the lookup (-k is the transpose of slot
    # k, with the transposed dimensions) there.
    def test_signed_lookup_is_transpose(self):
        m = Matrix([[1, 2], [3, 4]])
        n = Matrix([[0, 1], [2, 3]])
        ms = (m, n)
        a, b = m.as_array(), n.as_array()
        assert trace_along([(-1, 2)], ms, exact=True) == int(np.trace(a.T @ b))
        assert trace_along([(1, 2)], ms, exact=True) == int(np.trace(a @ b))
        assert np.trace(a.T @ b) != np.trace(a @ b)

    def test_rectangular_dims(self):
        # Slot 1 reads as 2x3 and slot -1 as 3x2: each chains with the 2x3
        # slot 2 only where those dimensions fit.
        a = Matrix([[1, 2, 3], [4, 5, 6]])
        c = Matrix([[0, 1, 2], [3, -1, 1]])
        ms = (a, c)
        aa, cc = a.as_array(), c.as_array()
        assert trace_along([(2, -1)], ms, exact=True) == int(np.trace(cc @ aa.T))
        assert trace_along([(1, -2)], ms, exact=True) == int(np.trace(aa @ cc.T))
        broken = r"slot 2 has 2x3 but slot 1 expects 3 rows, has 2"
        with pytest.raises(DimensionError, match=broken):
            trace_along([(2, 1)], ms, exact=True)


class TestTraceAlong:
    def setup_method(self):
        self.rng = random.Random(11)

    def test_fixed_points_give_plain_traces(self):
        d1 = Matrix([[1, 2], [3, 4]])
        d2 = Matrix([[5, 1], [1, 5]])
        ms = (d1, d2)
        assert trace_along([(1,), (2,)], ms, exact=True) == 5 * 10

    def test_negative_index_is_transpose(self):
        d1 = Matrix([[1, 2], [3, 4]])
        d2 = Matrix([[0, 1], [2, 3]])
        ms = (d1, d2)
        expected = int(np.trace(d1.as_array() @ d2.as_array().T))
        assert trace_along([(1, -2)], ms, exact=True) == expected

    def test_four_matrix_cycle(self):
        mats = [random_int_matrix(self.rng, 3, 3) for _ in range(10)]
        ms = tuple(mats)
        arrs = [m.as_array() for m in mats]
        direct = np.trace(arrs[0] @ arrs[6] @ arrs[4].T @ arrs[8].T)
        assert trace_along([(1, 7, -5, -9)], ms, exact=True) == round(direct)

    def test_rotation_invariance(self):
        mats = [random_int_matrix(self.rng, 2, 2) for _ in range(4)]
        ms = tuple(mats)
        cyc = (1, -3, 4, 2)
        vals = {
            trace_along([cyc[i:] + cyc[:i]], ms, exact=True) for i in range(4)
        }
        assert len(vals) == 1

    def test_reverse_negate_invariance(self):
        mats = [random_int_matrix(self.rng, 2, 2) for _ in range(4)]
        ms = tuple(mats)
        cyc = (1, -3, 4, 2)
        rev = tuple(-k for k in reversed(cyc))
        assert trace_along([cyc], ms, exact=True) == trace_along([rev], ms, exact=True)

    def test_all_identity_counts_chain_dimension(self):
        ms = (Matrix.identity(3), Matrix.identity(3), Matrix.identity(5))
        assert trace_along([(1, 2), (3,)], ms, exact=True) == 3 * 5

    def test_empty_cycle_list_is_one(self):
        assert trace_along([], (), exact=True) == 1
        assert trace_along([], ()) == 1.0

    def test_duplicate_slot_rejected(self):
        ms = (Matrix.identity(2), Matrix.identity(2))
        with pytest.raises(ValueError, match="more than one cycle"):
            trace_along([(1, 2), (-1,)], ms, exact=True)

    def test_dimension_mismatch_names_cycle_and_slot(self):
        ms = (Matrix([[1, 2]]), Matrix.identity(3))
        with pytest.raises(DimensionError, match=r"cycle \(1, 2\).*slot"):
            trace_along([(1, 2)], ms, exact=True)

    @pytest.mark.parametrize("slot", [0, 3, -3])
    def test_slot_out_of_range(self, slot):
        ms = (Matrix.identity(1), Matrix.identity(1))
        with pytest.raises(IndexError, match=rf"slot {slot} outside 1\.\.2"):
            trace_along([(1, slot)], ms, exact=True)

    def test_exact_requires_exact_entries(self):
        ms = (Matrix([[1.5]]),)
        with pytest.raises(ValueError, match="exact"):
            trace_along([(1,)], ms, exact=True)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_exact_and_float_agree(self, m):
        rng = random.Random(m)
        mats = [random_int_matrix(rng, 3, 3) for _ in range(m)]
        ms = tuple(mats)
        cyc = tuple(rng.choice((k, -k)) for k in range(1, m + 1))
        exact = trace_along([cyc], ms, exact=True)
        approx = trace_along([cyc], ms)
        assert math.isclose(approx, exact, rel_tol=1e-12, abs_tol=1e-12)

    def test_rectangular_chain(self):
        a = Matrix([[1, 2, 3], [4, 5, 6]])   # 2x3
        b = Matrix([[1, 0], [0, 1], [1, 1]])  # 3x2
        ms = (a, b)
        expected = int(np.trace(a.as_array() @ b.as_array()))
        assert trace_along([(1, 2)], ms, exact=True) == expected


class TestTraceCycles:
    """The engine's batched trace stage is ``trace_along`` of each cycle on
    its own."""

    def setup_method(self):
        rng = random.Random(12)
        # Slots 1-3 are 2x3, 3x3 and 3x2; slot 4 is a float 3x3.
        self.mats = (
            random_int_matrix(rng, 2, 3),
            Matrix([[Fraction(rng.randint(-9, 9), 7) for _ in range(3)] for _ in range(3)]),
            random_int_matrix(rng, 3, 2),
            Matrix([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]),
        )

    @pytest.mark.parametrize("exact", [False, True])
    def test_values(self, exact):
        cycles = [(2,), (-2,), (1, 2, 3), (-3, -2, -1), (1, -2, 3), (3, 1), (-1, -3), (2,)]
        if not exact:
            cycles += [(4,), (2, 4), (-4, 2), (1, 4, 3)]
        got = trace_rows(cycles, self.mats, exact)
        want = [trace_along((c,), self.mats, exact) for c in cycles]
        if exact:
            assert got == want and [type(x) for x in got] == [type(x) for x in want]
        else:
            assert [repr(x) for x in got] == [repr(x) for x in want]


class TestTraceCyclesInt64:
    """The exact batched trace stage multiplies int64 stacks when every
    slot holds ints and (amax * d)^L < 2^62, and object stacks otherwise;
    either way each trace is ``trace_along``'s, in value and type."""

    @staticmethod
    def trace(cycles, mats, monkeypatch):
        """The traces, checked against ``trace_along``, and whether any
        group took the int64 path."""
        int64 = []
        as_int64 = Matrix.as_int64

        def spy(mat):
            int64.append(mat)
            return as_int64(mat)

        monkeypatch.setattr(Matrix, "as_int64", spy)
        got = trace_rows(cycles, mats, exact=True)
        want = [trace_along((c,), mats, exact=True) for c in cycles]
        assert got == want and [type(x) for x in got] == [type(x) for x in want]
        return got, bool(int64)

    def test_small_ints_take_int64(self, monkeypatch):
        rng = random.Random(13)
        mats = tuple(random_int_matrix(rng, 3, 3) for _ in range(6))
        cycles = [(1,), (-2,), (1, 2), (-3, 4), (1, -2, 3), (4, 5, -6, 1), (-6, -5, -4, -3, -2, -1)]
        _, int64 = self.trace(cycles, mats, monkeypatch)
        assert int64

    def test_past_the_bound_stays_exact(self, monkeypatch):
        # (3 * 2^20)^3 > 2^63: a trace of three such products leaves int64.
        rng = random.Random(14)
        mats = tuple(random_int_matrix(rng, 3, 3, 2**20 - 8, 2**20) for _ in range(3))
        got, int64 = self.trace([(1, 2, 3), (-3, 1, -2)], mats, monkeypatch)
        assert not int64 and min(got) > 2**63

    @pytest.mark.parametrize("amax, int64", [(2**30, False), (2**30 - 1, True)])
    def test_at_the_bound(self, monkeypatch, amax, int64):
        # d = 2 and L = 2: (2 * 2^30)^2 is 2^62 itself, which the bound
        # excludes; one less fits.
        mats = (Matrix([[amax, -amax], [amax, amax]]), Matrix([[amax, amax], [-amax, amax]]))
        got, took = self.trace([(1, 2), (-1, 2), (1, -2)], mats, monkeypatch)
        assert took == int64 and max(map(abs, got)) <= 4 * amax**2

    def test_aliased_slots_with_opposite_signs(self, monkeypatch):
        rng = random.Random(15)
        d1, d3 = random_int_matrix(rng, 3, 3), random_int_matrix(rng, 3, 3)
        mats = (d1, d1, d3)  # D2 = D1
        cycles = [(1, -2), (-1, 2), (2, -1), (1, -2, 3), (-2, 1, -3), (1, 2, 3)]
        _, int64 = self.trace(cycles, mats, monkeypatch)
        assert int64

    def test_int_and_fraction_slots(self, monkeypatch):
        rng = random.Random(16)
        third = Matrix([[Fraction(rng.randint(-9, 9), 3) for _ in range(3)] for _ in range(3)])
        mats = (random_int_matrix(rng, 3, 3), third, random_int_matrix(rng, 3, 3))
        got, int64 = self.trace([(1, 3), (-1, 2), (2,), (3, -2, 1), (1,)], mats, monkeypatch)
        assert not int64
        assert [type(x) for x in got] == [int, Fraction, Fraction, Fraction, int]


def assert_like_trace_along(cycles, mats, exact=False):
    """``_trace_walk`` of the cycles is ``trace_along`` of each: the same
    float bits, or the same exact value and type."""
    got = trace_rows(cycles, mats, exact)
    want = [trace_along((c,), mats, exact) for c in cycles]
    assert [type(x) for x in got] == [type(x) for x in want]
    if exact:
        assert got == want
    else:
        assert [x.hex() for x in got] == [x.hex() for x in want]
    return got


class TestTraceTrie:
    """The batched stage multiplies each distinct cycle prefix once, in a
    trie over the sorted distinct rows; every trace is still
    ``trace_along``'s."""

    # Slots 1-6 are 3x2, 2x2, 2x3, 3x3, 2x2 and 3x3 (N != M); slot 7 holds
    # slot 4's matrix.  (4, 6) is a cycle and a prefix of longer ones, and
    # (1, 2, 5, 3) one of (1, 2, 5, 3, 4) and (1, 2, 5, 3, 4, 6).
    DIMS = ((3, 2), (2, 2), (2, 3), (3, 3), (2, 2), (3, 3))
    CYCLES = [
        (4,), (-4,), (2,), (-5,), (1, 3), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 6),
        (1, 2, 5, 3), (1, 2, 5, 3, 4), (1, 2, 5, 3, 4, 6), (1, 2, 5, 3, 6, 4),
        (1, -2, 3), (1, -2, -5, 3, 4), (4, 6), (4, 6, 1, 3), (4, 6, 1, 2, 3), (4, -6),
        (-6, -4), (-6, -4, 1, 2, 3), (-3, -1), (-3, -2, -1), (-3, -5, -2, -1, 4),
        (6, 4, 1, 5, 2, 3),
    ]

    def matrices(self, rng, entry):
        mats = [Matrix([[entry(rng) for _ in range(c)] for _ in range(r)]) for r, c in self.DIMS]
        return tuple(mats) + (mats[3],)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_prefixes_shared_across_lengths(self, exact):
        rng = random.Random(21)
        entry = (lambda g: Fraction(g.randint(-9, 9), 7)) if exact else (lambda g: g.uniform(-1, 1))
        assert_like_trace_along(self.CYCLES, self.matrices(rng, entry), exact)

    def test_unsorted_and_repeated_rows(self):
        rng = random.Random(22)
        mats = self.matrices(rng, lambda g: g.uniform(-1, 1))
        cycles = self.CYCLES + rng.choices(self.CYCLES, k=40)
        rng.shuffle(cycles)
        got = assert_like_trace_along(cycles, mats)
        assert got != sorted(got)

    def test_aliased_first_pair_beside_unaliased(self):
        # Slots 1 and 3 hold one 3 x 32 matrix a.  (1, -3), (3, -1) and
        # (-3, 1) read it with opposite signs, which trace_along multiplies
        # as a @ a.T (or a.T @ a), a syrk whose bits can differ from gemm's
        # from an inner dimension of 32; (1, -2) and (3, -2) start with the
        # same slot or matrix but are no such pair.
        rng = random.Random(23)
        a, b, c, d = (Matrix([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(r)])
                      for r, n in ((3, 32), (3, 32), (3, 3), (32, 32)))
        mats = (a, b, a, c, d)
        cycles = [(1, -3), (1, -3, 4), (3, -1), (-3, 1), (-3, 1, 5), (1, -2), (1, -2, 4),
                  (3, -2), (-2, 1, 5), (4,), (-5,)]
        assert_like_trace_along(cycles, mats)
        assert_like_trace_along(cycles[::-1], mats)

    def test_int64_and_past_the_bound_in_one_call(self, monkeypatch):
        # (2^10 * 3)^L < 2^62 for L <= 5 only: the short cycles are one
        # int64 trie, the cycles of 6 slots, whose traces leave int64, one
        # of object arrays.
        rng = random.Random(24)
        read = set()
        as_int64, as_array = Matrix.as_int64, Matrix.as_array
        monkeypatch.setattr(Matrix, "as_int64", lambda a: read.add("int64") or as_int64(a))
        monkeypatch.setattr(
            Matrix, "as_array", lambda a, exact=False: read.add("object") or as_array(a, exact)
        )
        mats = self.matrices(rng, lambda g: g.randint(2**10 - 8, 2**10))
        got = assert_like_trace_along(self.CYCLES, mats, exact=True)
        assert read == {"int64", "object"}
        assert all(type(x) is int for x in got) and max(map(abs, got)) >= 2**63

    def test_int_and_fraction_slots(self):
        rng = random.Random(25)
        mats = list(self.matrices(rng, lambda g: g.randint(-9, 9)))
        mats[1] = Matrix([[Fraction(rng.randint(-9, 9), 3) for _ in range(2)] for _ in range(2)])
        got = assert_like_trace_along(self.CYCLES, mats, exact=True)
        assert {int, Fraction} == set(map(type, got))

    def test_traces_that_cancel(self, monkeypatch):
        # Scaled Pauli matrices: a product's diagonal is exactly (p, -p) or
        # (0, 0) unless the product is a multiple of the identity, so many
        # traces cancel to 0, beside the rest; every diagonal is summed by
        # fsum.  Slot 5's diagonal is near the largest double; it is read
        # alone, since its products would overflow.
        rng = random.Random(27)
        paulis = ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]], [[1, 0], [0, 1]])
        mats = [Matrix([[rng.uniform(0.1, 3) * x for x in row] for row in rng.choice(paulis)])
                for _ in range(6)]
        mats[4] = Matrix([[1.5e307, 0.0], [0.0, -1e307]])
        mats.append(mats[3])
        cycles = [c for c in self.CYCLES if len(c) == 1 or 5 not in map(abs, c)]
        want = [trace_along((c,), mats) for c in cycles]
        fsum, summed = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda xs: summed.append(list(xs)) or fsum(xs))
        got = trace_rows(cycles, mats)
        monkeypatch.undo()
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert got.count(0.0) >= 5
        assert [1.5e307, -1e307] in summed and [0.0, 0.0] in summed

    def test_length_one_cycles_only(self):
        rng = random.Random(26)
        mats = self.matrices(rng, lambda g: g.uniform(-1, 1))
        assert_like_trace_along([(4,), (-4,), (2,), (6,), (-5,), (7,), (-7,)], mats)
        assert_like_trace_along([(2,), (4,)], mats, exact=False)
        int_mats = self.matrices(rng, lambda g: g.randint(-9, 9))
        assert_like_trace_along([(-6,), (4,), (2,)], int_mats, exact=True)


class TestBindMatrices:
    def test_profile_validation(self):
        shape = WordShape.alternating((2,))
        with pytest.raises(DimensionError, match="slot D1.*expected 2x2"):
            bind_matrices(
                {"D1": Matrix.identity(3), "D2": Matrix.identity(3)},
                ("D1", "D2"),
                shape,
                3,
                2,
            )

    def test_unbound_slot_named(self):
        shape = WordShape.alternating((2,))
        with pytest.raises(UnboundSlotError, match="D2"):
            bind_matrices({"D1": Matrix.identity(2)}, ("D1", "D2"), shape, 3, 2)

    def test_aliasing_shares_entries(self):
        shape = WordShape((2,), (1, 1))
        m = Matrix([[1, 2], [3, 4]])
        ms = bind_matrices({"D1": m}, ("D1", "D1"), shape, 2, 2)
        assert ms[0] is ms[1] is m


class TestBindingsFile:
    def test_identity_and_alias(self):
        text = "D1 = I 3\nD2 = D1\n"
        out = parse_bindings(text)
        assert out["D2"] is out["D1"]
        assert out["D1"] == Matrix.identity(3)

    def test_forward_alias(self):
        out = parse_bindings("D1 = D2\nD2 = I 2\n")
        assert out["D1"] == Matrix.identity(2)

    def test_file_target_uses_loader(self):
        calls = []

        def loader(path):
            calls.append(path)
            return Matrix.identity(1)

        out = parse_bindings("D1 = some/path.txt\n", loader=loader)
        assert calls == ["some/path.txt"] and out["D1"] == Matrix.identity(1)

    def test_circular_alias(self):
        with pytest.raises(MatrixFormatError, match="circular"):
            parse_bindings("D1 = D2\nD2 = D1\n")

    def test_long_alias_chain(self):
        # D1 = D2, ..., D1999 = D2000, D2000 = I 2: one shared Matrix.
        links = "".join(f"D{k} = D{k + 1}\n" for k in range(1, 2000))
        out = parse_bindings(links + "D2000 = I 2\n")
        assert len(out) == 2000 and len({id(mat) for mat in out.values()}) == 1
        assert out["D1"] == Matrix.identity(2)

    def test_long_alias_cycle(self):
        links = "".join(f"D{k} = D{k % 2000 + 1}\n" for k in range(1, 2001))
        with pytest.raises(MatrixFormatError, match="circular alias involving D1$"):
            parse_bindings(links)

    def test_bad_line(self):
        with pytest.raises(MatrixFormatError, match="name = target"):
            parse_bindings("D1 I 3\n")

    def test_load_from_disk(self, tmp_path):
        mat_file = tmp_path / "d.txt"
        mat_file.write_text("2 2\n1 2\n3 4\n")
        out = parse_bindings(f"D1 = {mat_file}\n")
        assert out["D1"].entries == ((1, 2), (3, 4))


class TestIdentityFill:
    def test_fills_square_slots(self):
        shape = WordShape.alternating((2,))
        out = slot_identity_fill({}, ("D1", "D2"), shape, 3, 2)
        assert out["D1"] == Matrix.identity(2) and out["D2"] == Matrix.identity(3)

    def test_rejects_rectangular_slot(self):
        shape = WordShape((2,), (1, 1))
        with pytest.raises(DimensionError, match="square"):
            slot_identity_fill({}, ("D1", "D2"), shape, 3, 2)

    def test_one_identity_per_size(self):
        shape = WordShape.alternating((4,))
        out = slot_identity_fill({}, ("D1", "D2", "D3", "D4"), shape, 3, 2)
        assert out["D1"] is out["D3"] and out["D2"] is out["D4"]
        assert out["D1"] == Matrix.identity(2) and out["D2"] == Matrix.identity(3)

    def test_keeps_existing(self):
        shape = WordShape.alternating((2,))
        m = Matrix([[1, 0], [0, 2]])
        out = slot_identity_fill({"D1": m}, ("D1", "D2"), shape, 3, 2)
        assert out["D1"] is m
