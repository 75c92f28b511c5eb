"""Row and column compositions of linear codes behind partitioned matrices.

A super row code chains codes that share a check-symbol count; its words are
'|'-partitioned row vectors.  A super column code stacks codes of one common
length; its words carry one length-n segment per component.  Membership,
syndromes and decoding are all componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .families import CyclicSpec, cyclic_from_poly, hamming, parity_check, repetition
from .gf2 import BitMatrix, BitVector, SuperMatrix
from .grid import format_super_word
from .linear import CodeError, LinearCode, Syndrome


class CompositionError(CodeError):
    """Raised when components violate a composition constraint."""


class GeneratorUndefinedError(CodeError):
    """Raised when a super generator matrix does not exist; the message
    names the violated constraint."""


@dataclass(frozen=True, slots=True)
class SuperCodeword:
    """One bit-vector segment per component."""

    segments: tuple[BitVector, ...]

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
    """Sum of the segment Hamming distances."""
    if x.shape() != y.shape():
        raise CompositionError(f"shape mismatch: {x.shape()} vs {y.shape()}")
    return sum((a.bits ^ b.bits).bit_count() for a, b in zip(x.segments, y.segments))


class _SuperCode:
    """Shared componentwise machinery for row and column compositions."""

    components: tuple[LinearCode, ...]

    def __len__(self) -> int:
        return len(self.components)

    def cardinality(self) -> int:
        return 1 << sum(c.k for c in self.components)

    def transmission_rate(self) -> Fraction:
        return Fraction(sum(c.k for c in self.components),
                        sum(c.n for c in self.components))

    def _check_shape(self, word: SuperCodeword) -> None:
        expected = tuple(c.n for c in self.components)
        if word.shape() != expected:
            raise CompositionError(f"word shape {word.shape()} does not match {expected}")

    def encode(self, messages: Sequence[BitVector]) -> SuperCodeword:
        if len(messages) != len(self.components):
            raise CompositionError(
                f"{len(messages)} messages for {len(self.components)} components")
        return SuperCodeword(tuple(c.encode(a) for c, a in zip(self.components, messages)))

    def syndrome(self, word: SuperCodeword) -> tuple[Syndrome, ...]:
        self._check_shape(word)
        return tuple(c.syndrome(s) for c, s in zip(self.components, word.segments))

    def is_member(self, word: SuperCodeword) -> bool:
        return all(s.bits == 0 for s in self.syndrome(word))

    def decode(self, word: SuperCodeword) -> tuple[SuperCodeword, SuperCodeword]:
        """Componentwise coset decoding: (codeword, error)."""
        self._check_shape(word)
        pairs = [c.decode(s) for c, s in zip(self.components, word.segments)]
        return (SuperCodeword(tuple(p[0] for p in pairs)),
                SuperCodeword(tuple(p[1] for p in pairs)))


class SuperRowCode(_SuperCode):
    """Codes C^1 .. C^n with a common check-symbol count m."""

    def __init__(self, components: Sequence[LinearCode]):
        if not components:
            raise CompositionError("a super row code needs at least one component")
        checks = [c.n - c.k for c in components]
        for i, m in enumerate(checks):
            if m != checks[0]:
                raise CompositionError(
                    f"component {i} has {m} check symbols, expected {checks[0]}")
        self.components = tuple(components)

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
        """Componentwise duals; exists only when every n_i = 2 k_i and the
        lengths all agree."""
        lengths = {c.n for c in self.components}
        if len(lengths) != 1:
            raise CompositionError("dual requires all component lengths equal")
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
        if not components:
            raise CompositionError("a super column code needs at least one component")
        lengths = [c.n for c in components]
        for i, n in enumerate(lengths):
            if n != lengths[0]:
                raise CompositionError(
                    f"component {i} has length {n}, expected {lengths[0]}")
        self.components = tuple(components)

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
    *cuts, total = accumulate(m.rows for m in mats)
    words = tuple(w for m in mats for w in m.row_words)
    return SuperMatrix(BitMatrix(total, mats[0].cols, words), row_cuts=tuple(cuts))


def row_family(kind: str, params) -> SuperRowCode:
    """Build a classical super row code.

    kinds: repetition (length, count), parity (list of lengths),
    hamming (list of m values), cyclic (list of (n, g) CyclicSpecs).
    """
    if kind == "repetition":
        length, count = params
        return SuperRowCode([repetition(length) for _ in range(count)])
    if kind == "parity":
        return SuperRowCode([parity_check(t) for t in params])
    if kind == "hamming":
        ms = list(params)
        if len(set(ms)) > 1:
            raise CompositionError(
                f"Hamming row components need equal check symbols, got m={ms}")
        return SuperRowCode([hamming(m) for m in ms])
    if kind == "cyclic":
        specs = [p if isinstance(p, CyclicSpec) else CyclicSpec(*p) for p in params]
        degs = {s.g.degree() for s in specs}
        if len(degs) > 1:
            raise CompositionError(
                f"cyclic row components need equal deg(g), got {sorted(degs)}")
        return SuperRowCode([cyclic_from_poly(s) for s in specs])
    raise CompositionError(f"unknown row family kind {kind!r}")


def col_family(kind: str, params) -> SuperColumnCode:
    """Build a classical super column code.

    kinds: repetition (length, count), parity (length, count),
    hamming (m, count), cyclic (list of (n, g) CyclicSpecs of equal n).
    """
    if kind == "repetition":
        length, count = params
        return SuperColumnCode([repetition(length) for _ in range(count)])
    if kind == "parity":
        length, count = params
        return SuperColumnCode([parity_check(length) for _ in range(count)])
    if kind == "hamming":
        m, count = params
        return SuperColumnCode([hamming(m) for _ in range(count)])
    if kind == "cyclic":
        specs = [p if isinstance(p, CyclicSpec) else CyclicSpec(*p) for p in params]
        return SuperColumnCode([cyclic_from_poly(s) for s in specs])
    raise CompositionError(f"unknown column family kind {kind!r}")
