import pytest

from wte.expr import (
    LeadingSlotWarning,
    ParseError,
    build_shape,
    elaborate,
    parse,
    pretty,
)
from wte.matrices import DimensionError, Matrix, UnboundSlotError

TWO_FACTOR = (
    "E[ tr(X' D1 X D2 X' D3 X D4 X' D5 X D6) tr(X' D7 X D8 X' D9 X D10) ]"
)


class TestParse:
    def test_two_factor_alternating_word(self):
        shape, slots = build_shape(parse(TWO_FACTOR))
        assert shape.lengths == (6, 4)
        assert shape.epsilon == tuple(-1 if k % 2 else 1 for k in range(1, 11))
        assert slots == tuple(f"D{i}" for i in range(1, 11))

    def test_plain_word(self):
        shape, _ = build_shape(parse("E[ tr(X D1 X D2) ]"))
        assert shape.lengths == (2,) and shape.epsilon == (1, 1)

    def test_two_families(self):
        shape, _ = build_shape(parse("E[ tr(G D1 H D2) ]"))
        assert shape.labels == ("G", "H")

    def test_cumulant_head(self):
        assert parse("k[ tr(X D1 X D2) ]").kind == "cumulant"

    def test_caret_transpose(self):
        ast1 = parse("E[ tr(X^T D1 X D2) ]")
        ast2 = parse("E[ tr(X' D1 X D2) ]")
        assert ast1.factors == ast2.factors

    def test_tr_and_Tr_both_accepted(self):
        assert parse("E[ Tr(X D1 X D2) ]").factors == parse("E[ tr(X D1 X D2) ]").factors

    def test_named_slots(self):
        shape, slots = build_shape(parse("E[ tr(X A X B) ]"))
        assert slots == ("A", "B")

    def test_leading_slot_cycles_with_warning(self):
        with pytest.warns(LeadingSlotWarning):
            ast = parse("E[ tr(D1 X' D2 X) ]")
        assert ast.factors == parse("E[ tr(X' D2 X D1) ]").factors

    def test_round_trip(self):
        for text in (
            TWO_FACTOR,
            "k[ tr(G' D1 H D2) tr(H D3 G D4) ]",
            "E[ tr(X A X B) ]",
        ):
            ast = parse(text)
            assert parse(pretty(ast)) == ast


class TestParseErrors:
    def assert_error(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert message in str(info.value)

    def test_bad_head(self):
        self.assert_error("Q[ tr(X D1 X D2) ]", "1:1: expected E[ or k[")

    def test_missing_bracket(self):
        self.assert_error("E tr(X D1 X D2) ]", "1:3: expected '['")

    def test_unbalanced_paren(self):
        self.assert_error("E[ tr(X D1 X D2 ]", "expected a matrix letter")

    def test_missing_close_bracket(self):
        self.assert_error("E[ tr(X D1 X D2)", "expected ']'")

    def test_empty_factor(self):
        self.assert_error("E[ tr() ]", "1:7: empty trace factor")

    def test_slot_in_letter_position(self):
        self.assert_error("E[ tr(X D1 D2 D3) ]", "1:12: matrix slot D2 in letter position")

    def test_letter_without_slot(self):
        self.assert_error("E[ tr(X D1 X) ]", "letter X has no matrix slot")

    def test_no_factors(self):
        self.assert_error("E[ ]", "expected tr( or Tr(")

    def test_lexical_error_position(self):
        self.assert_error("E[ tr(X @ D1) ]", "1:9: unexpected character '@'")

    def test_caret_without_t(self):
        self.assert_error("E[ tr(X^ D1) ]", "expected T after ^")

    def test_position_spans_lines(self):
        with pytest.raises(ParseError) as info:
            parse("E[\n tr() ]")
        assert info.value.line == 2


class TestElaborate:
    def test_full_pipeline(self):
        ast = parse("E[ tr(X' D1 X D2) ]")
        spec = elaborate(
            ast, {"D1": Matrix.identity(2), "D2": Matrix.identity(3)}, 3, 2
        )
        assert spec.n_dim == 3 and spec.m_dim == 2
        assert spec.shape.epsilon == (-1, 1)

    def test_unbound_slot_names_slot(self):
        ast = parse("E[ tr(X' D1 X D3) ]")
        with pytest.raises(UnboundSlotError, match="D3"):
            elaborate(ast, {"D1": Matrix.identity(2)}, 3, 2)

    def test_dimension_conflict_reports_slot_and_shape(self):
        ast = parse("E[ tr(X' D1 X D2) ]")
        with pytest.raises(DimensionError, match="D2.*expected 3x3"):
            elaborate(
                ast, {"D1": Matrix.identity(2), "D2": Matrix.identity(2)}, 3, 2
            )

    def test_plain_word_rectangular_slots_allowed(self):
        # X D1 X D2 with non-square X needs n_dim x m_dim slots
        ast = parse("E[ tr(X D1 X D2) ]")
        d = Matrix([[1, 2], [3, 4], [5, 6]])  # 3x2
        spec = elaborate(ast, {"D1": d, "D2": d}, 3, 2)
        slot = spec.matrices[0]
        assert (slot.rows, slot.cols) == (3, 2)

    def test_kind_passes_through(self):
        assert parse("k[ tr(X D1 X D2) ]").kind == "cumulant"

    def test_same_slot_name_aliases(self):
        ast = parse("E[ tr(X' D1 X D1) ]")
        # alternating profile needs D1 to be both 2x2 and 3x3: conflict
        with pytest.raises(DimensionError):
            elaborate(ast, {"D1": Matrix.identity(2)}, 3, 2)
        # with square dims the alias is fine
        spec = elaborate(ast, {"D1": Matrix.identity(2)}, 2, 2)
        assert spec.matrices[0] is spec.matrices[1]
