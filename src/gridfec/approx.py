"""Pseudo inner product over GF(2) and pseudo-best-approximation decoding.

The pseudo inner product is the plain GF(2) dot product.  Projecting y onto
a basis of a code C XORs the basis rows alpha with <y, alpha> = 1; they are
independent, so the projection vanishes exactly when y is orthogonal to C,
for every basis of C at once.  A retry with another basis can never succeed.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable, Optional

from .gf2 import BitMatrix, BitVector, Gf2Error, Value, _set, rank
from .linear import LinearCode


class ApproxDecodeError(ValueError):
    """Raised when a non-codeword's projection vanishes: it is orthogonal to the code."""


def pseudo_inner(x: BitVector, y: BitVector) -> int:
    """Sum of x_i * y_i mod 2."""
    if x.length != y.length:
        raise Gf2Error(f"length mismatch: {x.length} vs {y.length}")
    return (x.bits & y.bits).bit_count() & 1


def _project(rows: Iterable[int], word: int) -> int:
    """The XOR of the rows whose overlap with `word` has odd weight."""
    return reduce(xor, (r for r in rows if (r & word).bit_count() & 1), 0)


class Basis(Value):
    """An ordered, GF(2)-linearly-independent list of equal-length vectors."""

    __slots__ = ("vectors",)
    vectors: tuple[BitVector, ...]

    def __init__(self, vectors: tuple[BitVector, ...]) -> None:
        if not vectors:
            raise Gf2Error("basis must be non-empty")
        if rank(BitMatrix.from_rows(list(vectors))) != len(vectors):
            raise Gf2Error("basis vectors are linearly dependent")
        _set(self, "vectors", vectors)

    @property
    def length(self) -> int:
        return self.vectors[0].length


def pseudo_best_approx(beta: BitVector, basis: Basis) -> Optional[BitVector]:
    """Sum of <beta, alpha_k> alpha_k over the basis.

    Returns None when the sum vanishes for a nonzero beta, signalling that
    this basis admits no pseudo best approximation.
    """
    if beta.length != basis.length:
        raise Gf2Error(f"length mismatch: {beta.length} vs {basis.length}")
    acc = _project((alpha.bits for alpha in basis.vectors), beta.bits)
    if acc == 0 and beta.bits != 0:
        return None
    return BitVector(beta.length, acc)


def approx_decode(code: LinearCode, y: BitVector) -> BitVector:
    """Project a received word onto the rows of G; codewords pass through unchanged."""
    if code.syndrome(y).bits == 0:
        return y
    acc = _project(code.generator().row_words, y.bits)  # independent rows: no Basis check needed
    if not acc:
        raise ApproxDecodeError("vanishing projection onto G: y is orthogonal to the code")
    return BitVector(code.n, acc)
