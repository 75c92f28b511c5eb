"""m x n grids of linear codes: per-cell syndromes and decoding, row/column
stream serialization, redundancy voting, chart and mask selection, the
cellwise dot product and orthogonal grids.

Grid constraints: all cells of a column share one length, all cells of a row
share one check-symbol count.  `GridCode` is the one home of these rules and of
the cellwise operations; a super row or column code is a one-row or one-column
grid, so `GridError` is a `CompositionError`.  A grid codeword may mark cells as
absent (sender-side empty marker); syndromes, decoding and voting skip them.
Streams are only a file format: `format_super_word` and `parse_segments` are
the one writer and reader of '|'-joined lines (absent cell: MISSING_CELL).
The strategy rules `vote` and `arbitrate` run on cell bits (plain ints);
`GridCode.majority_vote` and `simultaneous_reconcile(row_word, col_word)` are
their edge on grid words (shape checks, absent cells), and the channel's trial
loop calls the rules directly.  `arbitrate` takes both copies' syndromes as
arguments: `simultaneous_reconcile` computes them, and the trial loop reads
them from its per-block syndrome memo.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .approx import pseudo_inner
from .gf2 import BitVector, Value, _set, mat_vec_bits
from .linear import CodeError, LinearCode, Syndrome

MISSING_CELL = "·"


class CompositionError(CodeError):
    """Raised when components violate a composition constraint."""


class GridError(CompositionError):
    """Raised on grid constraint or shape violations."""


Cells = tuple[tuple[Optional[BitVector], ...], ...]
T = TypeVar("T")


class GridCodeword(Value):
    """An m x n array of cell vectors; None marks an absent cell."""

    __slots__ = ("cells",)
    cells: Cells

    def __init__(self, cells: Cells) -> None:
        if not cells or not cells[0] or any(len(r) != len(cells[0]) for r in cells):
            raise GridError("cell rows must be non-empty and rectangular")
        _set(self, "cells", cells)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Optional[BitVector]]]) -> "GridCodeword":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def parse_rows(cls, rows: Sequence[Sequence[str]]) -> "GridCodeword":
        return cls.from_rows([parse_segments("|".join(row), len(row), f"row {i}")
                              for i, row in enumerate(rows)])

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    def to_row_stream(self) -> list[str]:
        """Row i as its cells left to right, '|'-joined."""
        return [format_super_word(row) for row in self.cells]

    def to_col_stream(self) -> list[str]:
        """Column j as its cells top to bottom, '|'-joined."""
        return [format_super_word(col) for col in zip(*self.cells)]


class GridCode:
    """An m x n array of linear codes satisfying the grid constraints."""

    def __init__(self, cells: Sequence[Sequence[LinearCode]]):
        if not cells or not cells[0]:
            raise GridError("a grid needs at least one cell")
        if any(len(row) != len(cells[0]) for row in cells):
            raise GridError("grid rows must all have the same number of cells")
        self.cells: tuple[tuple[LinearCode, ...], ...] = tuple(tuple(r) for r in cells)
        self.m = len(self.cells)
        self.n = len(self.cells[0])
        lengths, checks = self.column_lengths(), self.row_check_counts()
        for i, row in enumerate(self.cells):
            for j, c in enumerate(row):
                if c.n != lengths[j]:
                    raise GridError(f"cell ({i}, {j}) has length {c.n}; "
                                    f"column {j} has {lengths[j]}")
                if c.n - c.k != checks[i]:
                    raise GridError(f"cell ({i}, {j}) has {c.n - c.k} check symbols; "
                                    f"row {i} has {checks[i]}")

    @classmethod
    def uniform(cls, code: LinearCode, m: int, n: int) -> "GridCode":
        return cls([[code] * n for _ in range(m)])

    def is_uniform(self) -> bool:
        """True when every cell carries the same parity-check matrix."""
        first = self.cells[0][0]
        return all(c is first or c.h == first.h for row in self.cells for c in row)

    def column_lengths(self) -> tuple[int, ...]:
        return tuple(self.cells[0][j].n for j in range(self.n))

    def row_check_counts(self) -> tuple[int, ...]:
        return tuple(self.cells[i][0].n - self.cells[i][0].k for i in range(self.m))

    # -- cellwise operations ------------------------------------------------

    def _check_shape(self, word: GridCodeword) -> None:
        if word.m != self.m or word.n != self.n:
            raise GridError(f"word is {word.m}x{word.n}, grid is {self.m}x{self.n}")
        for i in range(self.m):
            for j in range(self.n):
                c = word.cells[i][j]
                if c is not None and c.length != self.cells[i][j].n:
                    raise GridError(
                        f"cell ({i}, {j}) has length {c.length}, "
                        f"expected {self.cells[i][j].n}")

    def encode(self, messages: Sequence[Sequence[BitVector]]) -> GridCodeword:
        if len(messages) != self.m or any(len(r) != self.n for r in messages):
            raise GridError(f"message grid must be {self.m}x{self.n}")
        return GridCodeword(tuple(tuple(c.encode(a) for c, a in zip(codes, row))
                                  for codes, row in zip(self.cells, messages)))

    def _cellwise(self, word: GridCodeword, op: Callable[[LinearCode, BitVector], T]
                  ) -> tuple[tuple[Optional[T], ...], ...]:
        """op(code, cell) on each present cell; None where a cell is absent."""
        self._check_shape(word)
        return tuple(tuple(None if x is None else op(c, x) for c, x in zip(codes, row))
                     for codes, row in zip(self.cells, word.cells))

    def syndrome(self, word: GridCodeword) -> tuple[tuple[Optional[Syndrome], ...], ...]:
        return self._cellwise(word, LinearCode.syndrome)

    def is_member(self, word: GridCodeword) -> bool:
        """True when every present cell has a zero syndrome; cells with the same
        check matrix and bits share one syndrome."""
        self._check_shape(word)
        pairs = {(c.h.row_words, x.bits) for codes, row in zip(self.cells, word.cells)
                 for c, x in zip(codes, row) if x is not None}
        return not any(mat_vec_bits(rows, bits) for rows, bits in pairs)

    def decode(self, word: GridCodeword) -> tuple[GridCodeword, GridCodeword]:
        """Per-cell coset decoding: (codeword, error); absent cells stay absent."""
        pairs = self._cellwise(word, LinearCode.decode)
        x, e = ([[None if p is None else p[k] for p in r] for r in pairs] for k in (0, 1))
        return GridCodeword.from_rows(x), GridCodeword.from_rows(e)

    # -- streams -------------------------------------------------------------

    def from_row_stream(self, lines: Sequence[str]) -> GridCodeword:
        if len(lines) != self.m:
            raise GridError(f"expected {self.m} row lines, got {len(lines)}")
        word = GridCodeword.from_rows([parse_segments(line, self.n, f"row {i}")
                                       for i, line in enumerate(lines)])
        self._check_shape(word)
        return word

    def from_col_stream(self, lines: Sequence[str]) -> GridCodeword:
        if len(lines) != self.n:
            raise GridError(f"expected {self.n} column lines, got {len(lines)}")
        cols = [parse_segments(line, self.m, f"column {j}") for j, line in enumerate(lines)]
        word = GridCodeword.from_rows(list(zip(*cols)))
        self._check_shape(word)
        return word

    # -- redundancy strategies -------------------------------------------------

    def majority_vote(self, received: GridCodeword) -> BitVector:
        """The `vote` of the present cells of a uniform grid: the most frequent
        value; ties go to the smallest syndrome weight of the value itself, then
        the lexicographically smallest bit string; if no value repeats, the vote
        reruns on the coset-decoded cells."""
        if not self.is_uniform():
            raise GridError("majority vote requires a uniform grid")
        self._check_shape(received)
        code = self.cells[0][0]
        values = [c.bits for row in received.cells for c in row if c is not None]
        if not values:
            raise GridError("every cell is absent; nothing to vote on")
        return BitVector(code.n, vote(code, values))

    def best_row_select(self, received: GridCodeword, by: str = "syndrome_count") -> int:
        """Index (0-based) of the row with the most zero cell syndromes.

        by="error_weight" instead minimizes the total decoded-error weight.
        Absent cells score nothing; ties go to the lowest row.
        """
        if by == "syndrome_count":
            scores = [-sum(1 for s in row if s is not None and s.bits == 0)
                      for row in self.syndrome(received)]
        elif by == "error_weight":
            scores = [sum(e.weight() for e in row if e is not None)
                      for row in self.decode(received)[1].cells]
        else:
            raise GridError(f"unknown selection rule {by!r}")
        return scores.index(min(scores))

    def simultaneous_reconcile(self, row_word: GridCodeword,
                               col_word: GridCodeword) -> "ReconcileResult":
        """Merge a row-transmitted and a column-transmitted copy cell by cell.

        Agreeing cells pass through; where one copy is absent the other is
        kept; other disagreements are settled by `arbitrate` on the two
        copies' syndromes (a copy with a zero syndrome, else the lighter coset
        leader; tie: the row copy).
        GridError on a misshapen copy.
        """
        self._check_shape(row_word)
        self._check_shape(col_word)
        disagreements: list[tuple[int, int]] = []
        out = []
        for i in range(self.m):
            row = []
            for j in range(self.n):
                a = row_word.cells[i][j]
                b = col_word.cells[i][j]
                if a == b:
                    row.append(a)
                    continue
                disagreements.append((i, j))
                if a is not None and b is not None:
                    code = self.cells[i][j]
                    sa, sb = (mat_vec_bits(code.h.row_words, c.bits) for c in (a, b))
                    a = BitVector(a.length, arbitrate(code, a.bits, b.bits, sa, sb))
                row.append(b if a is None else a)
            out.append(tuple(row))
        return ReconcileResult(GridCodeword(tuple(out)), tuple(disagreements))

    # -- derived grids -----------------------------------------------------------

    def orthogonal(self) -> "GridCode":
        """The cellwise dual grid."""
        return GridCode([[c.dual() for c in row] for row in self.cells])

    def is_cyclic(self) -> bool:
        return all(c.is_cyclic() for row in self.cells for c in row)


class ReconcileResult(Value):
    __slots__ = ("word", "disagreements")
    word: GridCodeword
    disagreements: tuple[tuple[int, int], ...]

    def __init__(self, word: GridCodeword, disagreements: tuple[tuple[int, int], ...]) -> None:
        _set(self, "word", word)
        _set(self, "disagreements", disagreements)


def vote(code: LinearCode, values: list[int]) -> int:
    """The plurality of one or more cell values of `code` (as bits).

    Tied values go to the smallest syndrome weight of the value itself, then
    to the smallest bit string (bit 0 first).  If two or more values are all
    distinct, each is coset-decoded and the vote runs on the decoded values.
    """
    rows = code.h.row_words
    counts = Counter(values)
    top = max(counts.values())
    if top == 1 and len(values) > 1:
        table = code.leader_bits
        counts = Counter(v ^ table[mat_vec_bits(rows, v)] for v in values)
        top = max(counts.values())
    tied = [v for v, c in counts.items() if c == top]
    return min(tied, key=lambda v: (mat_vec_bits(rows, v).bit_count(), str(BitVector(code.n, v))))


def arbitrate(code: LinearCode, a: int, b: int, sa: int, sb: int) -> int:
    """The cell kept from a disagreeing row copy `a` and column copy `b` (as bits),
    given their syndromes `sa` and `sb`.

    A copy with a zero syndrome wins, the row copy first, with no coset leader
    looked up; otherwise both are coset-decoded and the lighter leader wins, a tie
    going to the row copy.  The caller supplies the syndromes:
    `simultaneous_reconcile` computes them, and the channel's trial loop reads
    them from its syndrome memo.  Adding a codeword to both copies adds it to
    the result, so the rule also maps two error masks to the error kept.
    """
    if not sa:
        return a
    if not sb:
        return b
    ea = code.leader_bits[sa]
    eb = code.leader_bits[sb]
    return b ^ eb if eb.bit_count() < ea.bit_count() else a ^ ea


def format_super_word(segments: Iterable[Optional[BitVector]]) -> str:
    """The segments '|'-joined; an absent cell is the token MISSING_CELL."""
    return "|".join(MISSING_CELL if s is None else str(s) for s in segments)


def parse_segments(line: str, count: Optional[int] = None,
                   what: str = "word") -> list[Optional[BitVector]]:
    """The cells of a '|'-separated line, MISSING_CELL read as None; GridError on
    an empty segment or, when `count` is given, on another number of segments."""
    parts = line.split("|")
    if count is not None and len(parts) != count:
        raise GridError(f"{what} has {len(parts)} segments, expected {count}")
    if "" in parts:
        raise GridError(f"{what} contains an empty segment")
    return [None if p == MISSING_CELL else BitVector.from_string(p) for p in parts]


def grid_dot(x: GridCodeword, y: GridCodeword) -> tuple[tuple[int, ...], ...]:
    """Cellwise pseudo inner products of two same-order grid words."""
    if x.m != y.m or x.n != y.n:
        raise GridError(f"order mismatch: {x.m}x{x.n} vs {y.m}x{y.n}")
    out = []
    for i in range(x.m):
        row = []
        for j in range(x.n):
            a, b = x.cells[i][j], y.cells[i][j]
            if a is None or b is None:
                raise GridError(f"cell ({i}, {j}) is absent; dot product undefined")
            if a.length != b.length:
                raise GridError(f"cell ({i}, {j}) lengths differ: {a.length} vs {b.length}")
            row.append(pseudo_inner(a, b))
        out.append(tuple(row))
    return tuple(out)


def block_layout(m: int, n: int,
                 blocks: Sequence[tuple[tuple[int, int], tuple[int, int], LinearCode]]) -> GridCode:
    """Tile an m x n grid from (row_span, col_span, code) blocks.

    Spans are half-open (start, stop) ranges; the blocks must cover every
    cell exactly once and the filled grid must satisfy the grid constraints.
    """
    cells: list[list[Optional[LinearCode]]] = [[None] * n for _ in range(m)]
    for (r0, r1), (c0, c1), code in blocks:
        if not (0 <= r0 < r1 <= m and 0 <= c0 < c1 <= n):
            raise GridError(f"block rows {r0}:{r1} cols {c0}:{c1} falls outside the grid")
        for i in range(r0, r1):
            for j in range(c0, c1):
                if cells[i][j] is not None:
                    raise GridError(f"blocks overlap at cell ({i}, {j})")
                cells[i][j] = code
    for i in range(m):
        for j in range(n):
            if cells[i][j] is None:
                raise GridError(f"blocks leave cell ({i}, {j}) uncovered")
    return GridCode(cells)  # type: ignore[arg-type]


class TrueChart(Value):
    """Boolean grid marking which cells carry the real message."""

    __slots__ = ("marks",)
    marks: tuple[tuple[bool, ...], ...]

    def __init__(self, marks: tuple[tuple[bool, ...], ...]) -> None:
        if not marks or not marks[0] or any(len(r) != len(marks[0]) for r in marks):
            raise GridError("chart rows must be non-empty and rectangular")
        _set(self, "marks", marks)

    @classmethod
    def from_text(cls, text: str) -> "TrueChart":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise GridError("chart text is empty")
        for line in rows:  # line by line: its width, then its characters
            if len(line) != len(rows[0]):
                raise GridError("chart rows have differing widths")
            if bad := [ch for ch in line if ch not in "*."]:
                raise GridError(f"illegal chart character {bad[0]!r}")
        return cls(tuple(tuple(ch == "*" for ch in line) for line in rows))

    def to_text(self) -> str:
        return "\n".join("".join("*" if b else "." for b in row) for row in self.marks)

    @property
    def m(self) -> int:
        return len(self.marks)

    @property
    def n(self) -> int:
        return len(self.marks[0])

    def true_count(self) -> int:
        return sum(1 for row in self.marks for b in row if b)


def apply_chart(word: GridCodeword, chart: TrueChart) -> list[BitVector]:
    """The marked cells in row-major order."""
    if chart.m != word.m or chart.n != word.n:
        raise GridError(f"chart is {chart.m}x{chart.n}, word is {word.m}x{word.n}")
    marked = [(i, j) for i, row in enumerate(chart.marks) for j, b in enumerate(row) if b]
    return apply_mask(word, CellMask.from_pairs(marked, word.n))


class CellMask(Value):
    """1-based row-major cell indices selecting the meaningful cells."""

    __slots__ = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: tuple[int, ...]) -> None:
        if any(i < 1 for i in indices):
            raise GridError("mask indices are 1-based and must be positive")
        if len(set(indices)) != len(indices):
            raise GridError("mask indices must be distinct")
        _set(self, "indices", indices)

    @classmethod
    def from_pairs(cls, pairs, n_cols: int) -> "CellMask":
        """Build from 0-based (row, col) pairs on a grid with n_cols columns."""
        if n_cols < 1:
            raise GridError("grid needs at least one column")
        indices = []
        for r, c in pairs:
            if r < 0 or not 0 <= c < n_cols:
                raise GridError(f"cell ({r}, {c}) outside a grid {n_cols} columns wide")
            indices.append(r * n_cols + c + 1)
        return cls(tuple(indices))


def mask_from_ap(first: int, diff: int, last: int, cells: int) -> CellMask:
    """The arithmetic progression first, first+diff, ..., last over a grid of `cells` cells."""
    if diff < 1:
        raise GridError("common difference must be at least 1")
    if last < first:
        raise GridError("last term must not precede the first")
    if last > cells:
        raise GridError(f"last term {last} exceeds the grid's cell count {cells}")
    CellMask((first,))  # the terms ascend: refuse first < 1 before building them
    return CellMask(tuple(range(first, last + 1, diff)))


def apply_mask(word: GridCodeword, mask: CellMask) -> list[BitVector]:
    """The masked cells, in mask order; indices count row-major from 1."""
    total = word.m * word.n
    out = []
    for idx in mask.indices:
        if idx > total:
            raise GridError(f"mask index {idx} exceeds the {word.m}x{word.n} grid")
        i, j = divmod(idx - 1, word.n)
        c = word.cells[i][j]
        if c is None:
            raise GridError(f"the selection includes the absent cell ({i}, {j})")
        out.append(c)
    return out


def load_stencil(name: str) -> CellMask:
    """A shipped letter/symbol stencil ('t', 'k' or 'cross') as a CellMask."""
    from importlib import resources  # only stencil readers pay for its import

    shipped = {f.name: f for f in resources.files("gridfec.stencils").iterdir()}
    if f"{name}.txt" not in shipped:
        raise GridError(f"unknown stencil {name!r}")
    text = shipped[f"{name}.txt"].read_text()
    indices = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            indices.append(int(line))
    return CellMask(tuple(indices))
