"""Dense matrix storage, family Gram matrices, bindings, and the trace
along signed cycles that the engine's batched traces are tested against.

Matrices are immutable after construction and carry their entries as
plain Python numbers.  Each matrix keeps three cached numpy views of
them: a float64 array for float evaluation, an int64 array for a matrix
of ``int`` entries, and an object array holding the ``int``/``Fraction``
entries themselves, whose products are exact and unbounded.  The
matrices of a word's slots 1..m are a plain tuple in slot order, as
:func:`bind_matrices` returns it.  :func:`trace_along` reads signed
slots: slot k is the matrix of slot k and -k its transpose, which is
never materialized; evaluation multiplies the transposed view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .gluing import WordShape, slot_dimensions

Number = Union[int, float, Fraction]


class DimensionError(ValueError):
    """Matrix dimensions do not chain or do not match the slot profile."""


class MatrixFormatError(ValueError):
    """A matrix or bindings file could not be parsed."""


class UnboundSlotError(LookupError):
    """A matrix slot in the word has no binding."""


def _parse_number(token: str) -> Number:
    """An int for an integer token, an exact Fraction for a fraction or a
    decimal (``0.3`` is 3/10, not the nearest binary float), and a float
    only for what Fraction rejects, such as ``inf``.  Anything else,
    ``1/0`` included, raises ValueError."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return float(token)


class Matrix:
    """A rows x cols real matrix with row-major entries."""

    __slots__ = ("rows", "cols", "entries", "is_exact", "amax", "_float", "_int", "_exact")

    def __init__(self, entries: Sequence[Sequence[Number]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrices must have at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("all rows must have the same length")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = rows
        # True when every entry is an integer or rational (no floats).
        self.is_exact = all(isinstance(x, (int, Fraction)) for row in rows for x in row)
        # The largest |entry| when every entry is an int, else None.
        ints = all(isinstance(x, int) for row in rows for x in row)
        self.amax = max(abs(x) for row in rows for x in row) if ints else None
        self._float = None
        self._int = None
        self._exact = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def as_array(self, exact: bool = False) -> np.ndarray:
        """Cached float64 view, or with ``exact`` an object array of the
        entries themselves."""
        if exact:
            if self._exact is None:
                self._exact = np.array(self.entries, dtype=object)
            return self._exact
        if self._float is None:
            self._float = np.array(self.entries, dtype=float)
        return self._float

    def as_int64(self) -> np.ndarray:
        """Cached int64 view of a matrix of ``int`` entries below 2^63 in
        absolute value."""
        if self._int is None:
            self._int = np.array(self.entries, dtype=np.int64)
        return self._int

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def parse_matrix(text: str) -> Matrix:
    """Parse the plain-text format: first line "rows cols", then the rows.

    Entries may be integers, fractions like 3/4, or decimals like 0.1,
    which are read as exact rationals.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f'expected header "rows cols", got {lines[0]!r}')
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(f'expected integer header "rows cols", got {lines[0]!r}')
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"expected at least one row and column, got {lines[0]!r}")
    if len(lines) != rows + 1:
        raise MatrixFormatError(f"expected {rows} rows after the header, got {len(lines) - 1}")
    data = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != cols:
            raise MatrixFormatError(f"row {i}: expected {cols} entries, got {len(tokens)}")
        try:
            data.append(tuple(_parse_number(t) for t in tokens))
        except ValueError:
            raise MatrixFormatError(f"row {i}: unparseable entry in {ln!r}")
    return Matrix(data)


@dataclass(frozen=True)
class Gram:
    """Symmetric matrix of inner products between matrix-family labels."""

    labels: tuple[str, ...]
    entries: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("gram labels must be distinct")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("gram matrix must be square over the labels")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "Gram":
        n = len(labels)
        return cls(
            tuple(labels),
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
        )

    def value(self, a: str, b: str) -> Number:
        try:
            i, j = self.labels.index(a), self.labels.index(b)
        except ValueError as exc:
            raise KeyError(f"unknown matrix family {exc}") from None
        return self.entries[i][j]

    def covers(self, labels: Sequence[str]) -> bool:
        return set(labels) <= set(self.labels)


def parse_gram(text: str) -> Gram:
    """Gram file: a line of family names, then the symmetric matrix rows.

    Entries are read like matrix entries, so decimals stay exact.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty gram file")
    labels = tuple(lines[0].split())
    if len(lines) != len(labels) + 1:
        raise MatrixFormatError(
            f"gram file: expected {len(labels)} rows after the label line"
        )
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != len(labels):
            raise MatrixFormatError("gram file: row width does not match labels")
        try:
            rows.append(tuple(_parse_number(t) for t in tokens))
        except ValueError:
            raise MatrixFormatError(f"gram file row {i}: unparseable entry in {ln!r}")
    try:
        return Gram(labels, tuple(rows))
    except ValueError as exc:
        raise MatrixFormatError(f"gram file: {exc}") from None


def load_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def bind_matrices(
    bindings: Mapping[str, Matrix],
    slot_names: Sequence[str],
    shape: WordShape,
    n_dim: int,
    m_dim: int,
) -> tuple[Matrix, ...]:
    """Assemble and validate the slot matrices of a word, in slot order.

    ``slot_names[k-1]`` names slot k; the same name may label several
    slots (aliasing).  Every slot must resolve to a matrix of the
    dimensions the word's profile requires.
    """
    profile = slot_dimensions(shape, n_dim, m_dim)
    matrices = []
    for k, name in enumerate(slot_names, start=1):
        if name not in bindings:
            raise UnboundSlotError(f"unbound matrix slot {name}")
        mat = bindings[name]
        want = profile[k - 1]
        if (mat.rows, mat.cols) != want:
            raise DimensionError(
                f"slot {name} (position {k}) expected {want[0]}x{want[1]}, "
                f"got {mat.rows}x{mat.cols}"
            )
        matrices.append(mat)
    return tuple(matrices)


def slot_identity_fill(
    bindings: Mapping[str, Matrix],
    slot_names: Sequence[str],
    shape: WordShape,
    n_dim: int,
    m_dim: int,
) -> dict[str, Matrix]:
    """Copy of ``bindings`` with every unbound slot bound to the identity
    of its required size, one ``Matrix`` per size; rejects slots whose
    profile is rectangular."""
    out = dict(bindings)
    profile = slot_dimensions(shape, n_dim, m_dim)
    identities: dict[int, Matrix] = {}  # one per size, shared by its slots
    for k, name in enumerate(slot_names, start=1):
        if name in out:
            continue
        rows, cols = profile[k - 1]
        if rows != cols:
            raise DimensionError(
                f"slot {name} needs {rows}x{cols}; identity fill requires square slots"
            )
        if rows not in identities:
            identities[rows] = Matrix.identity(rows)
        out[name] = identities[rows]
    return out


# Bindings-file support: lines "Dk = <path>", "Dk = I <dim>", "Dk = Dj".


def parse_bindings(
    text: str, loader=load_matrix, identity=Matrix.identity
) -> dict[str, Matrix]:
    """Parse a bindings file into name -> Matrix, resolving aliases.

    Alias targets may reference names bound anywhere in the file, so a
    single token matching another bound name is an alias and anything
    else is a file path.  ``loader(path)`` reads a matrix file and
    ``identity(n)`` builds the n x n identity of an ``I <dim>`` line.
    """
    entries: dict[str, str] = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise MatrixFormatError(f"bindings line {lineno}: expected 'name = target'")
        name, target = (part.strip() for part in ln.split("=", 1))
        if not name or not target:
            raise MatrixFormatError(f"bindings line {lineno}: empty name or target")
        entries[name] = target

    resolved: dict[str, Matrix] = {}
    for name in entries:
        chain: dict[str, None] = {}  # the aliases walked from this name
        while name not in resolved:
            if name in chain:
                raise MatrixFormatError(f"circular alias involving {name}")
            tokens = entries[name].split()
            if tokens[0] == "I":
                if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                    raise MatrixFormatError(f"binding {name}: use 'I <dim>'")
                resolved[name] = identity(int(tokens[1]))
            elif len(tokens) == 1 and tokens[0] in entries:
                chain[name] = None
                name = tokens[0]
            else:
                resolved[name] = loader(entries[name])
        for alias in reversed(chain):
            resolved[alias] = resolved[name]
    return resolved


def trace_along(
    cyc_list: Iterable[Sequence[int]], mats: Sequence[Matrix], exact: bool = False
) -> Number:
    """Product over cycles of the trace of the slot matrices ``mats``
    multiplied in cycle order, slot -k meaning the transpose of slot k.

    Each slot lies in 1..m and may appear at most once across all cycles,
    and each cycle's matrices must chain.  Float mode sums each trace's
    diagonal with error-free summation; exact mode multiplies the object
    views, so every slot it reads needs integer or rational entries.
    """
    seen: set[int] = set()
    total: Number = 1 if exact else 1.0
    for cyc in cyc_list:
        views = []
        for k in cyc:
            slot = -k if k < 0 else k
            if not 0 < slot <= len(mats):
                raise IndexError(f"slot {k} outside 1..{len(mats)}")
            if slot in seen:
                raise ValueError(f"slot {slot} appears in more than one cycle position")
            seen.add(slot)
            mat = mats[slot - 1]
            if exact and not mat.is_exact:
                raise ValueError("exact mode requires integer or rational matrix entries")
            view = mat.as_array(exact)
            views.append(view.T if k < 0 else view)
        for i, view in enumerate(views):
            j = (i + 1) % len(views)
            rows, cols = view.shape
            if cols != views[j].shape[0]:
                raise DimensionError(
                    f"cycle {tuple(cyc)}: slot {cyc[i]} has {rows}x{cols} "
                    f"but slot {cyc[j]} expects {cols} rows, has {views[j].shape[0]}"
                )
        prod = views[0]
        for view in views[1:]:
            prod = prod @ view
        diagonal = prod.diagonal().tolist()
        total = total * (sum(diagonal) if exact else math.fsum(diagonal))
    return total
