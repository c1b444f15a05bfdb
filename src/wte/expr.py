"""Parser for the trace-word input language.

Grammar::

    expr   := ("E[" | "k[") trace { trace } "]"
    trace  := ("tr" | "Tr") "(" pair { pair } ")"
    pair   := xletter dslot
    xletter:= IDENT [ "'" | "^T" ]     -- IDENT names a matrix family
    dslot  := "D" INTEGER | IDENT

Tokens are whitespace-separated words, quotes, and brackets; "X'" and
"X^T" both mark a transposed letter.  "E[" asks for a moment, "k[" for a
cumulant.  A factor must start with a letter; a leading numbered slot
like D1 is cycled to the end of its factor with a warning, since traces
are invariant under rotation.  Errors carry line:column positions and
stable messages.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .engine import MomentSpec
from .gluing import WordShape
from .matrices import Gram, Matrix, bind_matrices


class ParseError(ValueError):
    """Syntax error with a 1-based line:column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class LeadingSlotWarning(UserWarning):
    """A factor began with a matrix slot that was cycled to the end."""


@dataclass(frozen=True)
class XLetter:
    family: str
    transposed: bool


@dataclass(frozen=True)
class DSlot:
    name: str


@dataclass(frozen=True)
class TraceWordAst:
    """kind is "moment" or "cumulant"; each factor is a tuple of
    (letter, slot) pairs in word order."""

    kind: str
    factors: tuple[tuple[tuple[XLetter, DSlot], ...], ...]


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, QUOTE, CARET_T, LB, RB, LP, RP, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            yield _Token("IDENT", text[start:i], line, start_col)
            continue
        if ch == "'":
            yield _Token("QUOTE", "'", line, col)
        elif ch == "^":
            if i + 1 >= len(text) or text[i + 1] != "T":
                raise ParseError("expected T after ^", line, col)
            yield _Token("CARET_T", "^T", line, col)
            i += 1
            col += 1
        elif ch == "[":
            yield _Token("LB", ch, line, col)
        elif ch == "]":
            yield _Token("RB", ch, line, col)
        elif ch == "(":
            yield _Token("LP", ch, line, col)
        elif ch == ")":
            yield _Token("RP", ch, line, col)
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += 1
        col += 1
    yield _Token("EOF", "", line, col)


def _is_numbered_slot(name: str) -> bool:
    return len(name) > 1 and name[0] == "D" and name[1:].isdigit()


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col
            )
        return self.advance()

    def parse(self) -> TraceWordAst:
        head = self.peek()
        if head.kind != "IDENT" or head.text not in ("E", "k"):
            raise ParseError("expected E[ or k[", head.line, head.col)
        self.advance()
        kind = "moment" if head.text == "E" else "cumulant"
        self.expect("LB", "'['")
        factors = []
        while True:
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text in ("tr", "Tr"):
                factors.append(self.parse_trace())
            else:
                break
        if not factors:
            tok = self.peek()
            raise ParseError("expected tr( or Tr(", tok.line, tok.col)
        self.expect("RB", "']'")
        self.expect("EOF", "end of input")
        return TraceWordAst(kind, tuple(factors))

    def parse_trace(self) -> tuple[tuple[XLetter, DSlot], ...]:
        self.advance()  # tr / Tr
        open_tok = self.expect("LP", "'('")
        pairs: list[tuple[XLetter, DSlot]] = []
        leading: Optional[_Token] = None

        first = self.peek()
        if first.kind == "RP":
            raise ParseError("empty trace factor", first.line, first.col)
        if first.kind == "IDENT" and _is_numbered_slot(first.text):
            leading = self.advance()
            warnings.warn(
                f"factor starting with slot {leading.text}: cycled to the end",
                LeadingSlotWarning,
                stacklevel=4,
            )

        while self.peek().kind != "RP":
            letter = self.parse_xletter()
            nxt = self.peek()
            if nxt.kind == "RP":
                if leading is not None:
                    pairs.append((letter, DSlot(leading.text)))
                    leading = None
                    break
                raise ParseError(
                    f"letter {letter.family} has no matrix slot", nxt.line, nxt.col
                )
            slot = self.expect("IDENT", "a matrix slot")
            pairs.append((letter, DSlot(slot.text)))
        if leading is not None:
            tok = self.peek()
            raise ParseError(
                f"slot {leading.text} has no preceding letter after cycling",
                tok.line,
                tok.col,
            )
        self.expect("RP", "')'")
        if not pairs:
            raise ParseError("empty trace factor", open_tok.line, open_tok.col)
        return tuple(pairs)

    def parse_xletter(self) -> XLetter:
        tok = self.expect("IDENT", "a matrix letter")
        if _is_numbered_slot(tok.text):
            raise ParseError(
                f"matrix slot {tok.text} in letter position", tok.line, tok.col
            )
        transposed = False
        if self.peek().kind in ("QUOTE", "CARET_T"):
            self.advance()
            transposed = True
        return XLetter(tok.text, transposed)


def parse(text: str) -> TraceWordAst:
    """Parse an expression; raises :class:`ParseError` with position info.

    >>> parse("E[ tr(X' D1 X D2) ]").factors[0][0][0]
    XLetter(family='X', transposed=True)
    """
    return _Parser(text).parse()


def pretty(ast: TraceWordAst) -> str:
    """Canonical rendering; re-parsing it yields an identical AST."""
    head = "E[" if ast.kind == "moment" else "k["
    parts = [head]
    for factor in ast.factors:
        inner = " ".join(
            (f"{x.family}' {d.name}" if x.transposed else f"{x.family} {d.name}")
            for x, d in factor
        )
        parts.append(f"tr({inner})")
    parts.append("]")
    return " ".join(parts)


def build_shape(ast: TraceWordAst) -> tuple[WordShape, tuple[str, ...]]:
    """Word skeleton plus the slot name at each letter position."""
    lengths = tuple(len(factor) for factor in ast.factors)
    eps, labels, slots = [], [], []
    for factor in ast.factors:
        for letter, slot in factor:
            eps.append(-1 if letter.transposed else 1)
            labels.append(letter.family)
            slots.append(slot.name)
    return WordShape(lengths, tuple(eps), tuple(labels)), tuple(slots)


def elaborate(
    ast: TraceWordAst,
    bindings: Mapping[str, Matrix],
    n_dim: int,
    m_dim: int,
    *,
    q=1,
    gram: Optional[Gram] = None,
    wigner: Sequence[str] = (),
) -> MomentSpec:
    """Resolve slots against bindings and validate the full problem.

    Raises ``KeyError`` for an unbound slot, :class:`DimensionError` for
    a profile conflict (naming the slot and the expected shape), and
    ``ValueError`` for gram/family mismatches.
    """
    shape, slot_names = build_shape(ast)
    matrices = bind_matrices(bindings, slot_names, shape, n_dim, m_dim)
    return MomentSpec(
        shape=shape,
        matrices=matrices,
        n_dim=n_dim,
        m_dim=m_dim,
        q=q,
        gram=gram,
        wigner=frozenset(wigner),
    )
