"""Row and column compositions of linear codes behind partitioned matrices.

A super row code chains codes that share a check-symbol count; its words are
'|'-partitioned row vectors.  A super column code stacks codes of one common
length; its words carry one length-n segment per component.  A row code is a
one-row `GridCode` and a column code a one-column one: the grid checks the
composition rule (its `GridError` is a `CompositionError`) and runs the
componentwise encoding, syndromes, membership and decoding.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .families import CyclicSpec, cyclic_from_poly, hamming, parity_check, repetition
from .gf2 import BitMatrix, BitVector, SuperMatrix, Value, _set, super_transpose, transpose
from .grid import CompositionError as CompositionError  # re-exported
from .grid import GridCode, GridCodeword, format_super_word
from .linear import CodeError, LinearCode, Syndrome

if TYPE_CHECKING:
    from fractions import Fraction


class GeneratorUndefinedError(CodeError):
    """Raised when a super generator matrix does not exist; the message
    names the violated constraint."""


class SuperCodeword(Value):
    """One bit-vector segment per component."""

    __slots__ = ("segments",)
    segments: tuple[BitVector, ...]

    def __init__(self, segments: tuple[BitVector, ...]) -> None:
        _set(self, "segments", segments)

    @classmethod
    def of(cls, *texts: str) -> "SuperCodeword":
        return cls(tuple(BitVector.from_string(t) for t in texts))

    def __str__(self) -> str:
        return format_super_word(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def shape(self) -> tuple[int, ...]:
        return tuple(s.length for s in self.segments)

    def __xor__(self, other: "SuperCodeword") -> "SuperCodeword":
        if self.shape() != other.shape():
            raise CompositionError(f"shape mismatch: {self.shape()} vs {other.shape()}")
        return SuperCodeword(tuple(a ^ b for a, b in zip(self.segments, other.segments)))


def super_weight(x: SuperCodeword) -> int:
    return sum(s.weight() for s in x.segments)


def super_distance(x: SuperCodeword, y: SuperCodeword) -> int:
    """Sum of the segment Hamming distances: the weight of the difference."""
    return super_weight(x ^ y)


class _SuperCode:
    """A row or column composition held as a one-row or one-column grid; a
    word's segments are the grid's cells in row-major order."""

    def __init__(self, components: Sequence[LinearCode], by_row: bool):
        self.components = tuple(components)
        self._grid = GridCode([components] if by_row else [[c] for c in components])

    def __len__(self) -> int:
        return len(self.components)

    def cardinality(self) -> int:
        return 1 << sum(c.k for c in self.components)

    def transmission_rate(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(c.k for c in self.components),
                        sum(c.n for c in self.components))

    def _cells(self, segments: Sequence[BitVector]) -> tuple[tuple[BitVector, ...], ...]:
        """One segment per component, reshaped to the grid's rows."""
        if len(segments) != len(self):
            raise CompositionError(f"{len(segments)} segments for {len(self)} components")
        n = self._grid.n
        return tuple(tuple(segments[i:i + n]) for i in range(0, len(segments), n))

    @staticmethod
    def _flat(word: GridCodeword) -> SuperCodeword:
        return SuperCodeword(tuple(c for row in word.cells for c in row))

    def encode(self, messages: Sequence[BitVector]) -> SuperCodeword:
        return self._flat(self._grid.encode(self._cells(messages)))

    def syndrome(self, word: SuperCodeword) -> tuple[Syndrome, ...]:
        syn = self._grid.syndrome(GridCodeword(self._cells(word.segments)))
        return tuple(s for row in syn for s in row)

    def is_member(self, word: SuperCodeword) -> bool:
        return self._grid.is_member(GridCodeword(self._cells(word.segments)))

    def decode(self, word: SuperCodeword) -> tuple[SuperCodeword, SuperCodeword]:
        """Componentwise coset decoding: (codeword, error)."""
        decoded, errors = self._grid.decode(GridCodeword(self._cells(word.segments)))
        return self._flat(decoded), self._flat(errors)


class SuperRowCode(_SuperCode):
    """Codes C^1 .. C^n with a common check-symbol count m."""

    def __init__(self, components: Sequence[LinearCode]):
        super().__init__(components, by_row=True)

    @property
    def check_count(self) -> int:
        return self.components[0].n - self.components[0].k

    def min_distance(self) -> int:
        """Minimum `super_distance` over pairs of super codewords that differ
        in every segment.

        For linear components this is the sum of the componentwise minimum
        distances, which is what is computed.  It is not the minimum over
        all distinct pairs, which would be the smallest componentwise
        minimum.
        """
        return sum(c.min_distance() for c in self.components)

    def dual(self) -> "SuperRowCode":
        """Componentwise duals; exists only when every n_i = 2 k_i.  The components
        share one check count m, so every length is then 2m."""
        for i, c in enumerate(self.components):
            if c.n != 2 * c.k:
                raise CompositionError(f"component {i} has n={c.n} != 2k={2 * c.k}")
        return SuperRowCode([c.dual() for c in self.components])

    def generator(self) -> SuperMatrix:
        """The concatenated [G_1 | ... | G_n]; defined only when every
        component carries the same number of message symbols."""
        ks = {c.k for c in self.components}
        if len(ks) != 1:
            raise GeneratorUndefinedError(
                f"message-symbol counts differ across components: "
                f"{sorted(c.k for c in self.components)}")
        return _side_by_side([c.generator() for c in self.components])

    def parity_matrix(self) -> SuperMatrix:
        """The concatenated [H_1 | ... | H_n] with the component cut lines."""
        return _side_by_side([c.standardize()[0] if c.h.rows != self.check_count else c.h
                              for c in self.components])


class SuperColumnCode(_SuperCode):
    """Codes C_1 .. C_m sharing one length n, stacked vertically."""

    def __init__(self, components: Sequence[LinearCode]):
        super().__init__(components, by_row=False)

    @property
    def length(self) -> int:
        return self.components[0].n

    def generator(self) -> SuperMatrix:
        """The stacked [G_1 / ... / G_n]; each component must standardize."""
        return _stacked([c.generator() for c in self.components])

    def parity_matrix(self) -> SuperMatrix:
        return _stacked([c.h for c in self.components])


def _side_by_side(mats: Sequence[BitMatrix]) -> SuperMatrix:
    """[M_1 | ... | M_n] for blocks of equal height, cut between blocks."""
    *cuts, total = accumulate(m.cols for m in mats)
    offsets = (0, *cuts)
    words = tuple(sum(m.row_words[r] << off for m, off in zip(mats, offsets))
                  for r in range(mats[0].rows))
    return SuperMatrix(BitMatrix(len(words), total, words), col_cuts=tuple(cuts))


def _stacked(mats: Sequence[BitMatrix]) -> SuperMatrix:
    """[M_1 / ... / M_n] for blocks of equal width, cut between blocks."""
    return super_transpose(_side_by_side([transpose(m) for m in mats]))


# One constructor per family kind, applied to each component's parameter.
_FAMILIES = {
    "repetition": repetition,
    "parity": parity_check,
    "hamming": hamming,
    "cyclic": lambda p: cyclic_from_poly(p if isinstance(p, CyclicSpec) else CyclicSpec(*p)),
}


def _family(kind: str, params, shape: str) -> list[LinearCode]:
    """One code of the family `kind` per component parameter."""
    if kind not in _FAMILIES:
        raise CompositionError(f"unknown {shape} family kind {kind!r}")
    return [_FAMILIES[kind](p) for p in params]


def row_family(kind: str, params) -> SuperRowCode:
    """Build a classical super row code.

    kinds: repetition (length, count), parity (list of lengths),
    hamming (list of m values), cyclic (list of (n, g) CyclicSpecs).
    """
    if kind == "repetition":
        length, count = params
        params = [length] * count
    return SuperRowCode(_family(kind, params, "row"))


def col_family(kind: str, params) -> SuperColumnCode:
    """Build a classical super column code.

    kinds: repetition (length, count), parity (length, count),
    hamming (m, count), cyclic (list of (n, g) CyclicSpecs of equal n).
    """
    if kind in _FAMILIES and kind != "cyclic":
        size, count = params
        params = [size] * count
    return SuperColumnCode(_family(kind, params, "column"))
