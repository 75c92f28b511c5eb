"""Pseudo inner product over GF(2) and pseudo-best-approximation decoding.

The pseudo inner product is the plain GF(2) dot product; it can vanish on a
nonzero vector paired with itself, which is why the projection-style decoder
below may need to retry with a different basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf2 import BitMatrix, BitVector, Gf2Error, rank
from .linear import LinearCode


class ApproxDecodeError(ValueError):
    """Raised when every scheduled basis choice yields a vanishing projection."""


def pseudo_inner(x: BitVector, y: BitVector) -> int:
    """Sum of x_i * y_i mod 2."""
    if x.length != y.length:
        raise Gf2Error(f"length mismatch: {x.length} vs {y.length}")
    return (x.bits & y.bits).bit_count() & 1


@dataclass(frozen=True, slots=True)
class Basis:
    """An ordered, GF(2)-linearly-independent list of equal-length vectors."""

    vectors: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise Gf2Error("basis must be non-empty")
        if rank(BitMatrix.from_rows(list(self.vectors))) != len(self.vectors):
            raise Gf2Error("basis vectors are linearly dependent")

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
    acc = BitVector.zeros(beta.length)
    for alpha in basis.vectors:
        if pseudo_inner(beta, alpha):
            acc ^= alpha
    if acc.bits == 0 and beta.bits != 0:
        return None
    return acc


def approx_decode(code: LinearCode, y: BitVector) -> BitVector:
    """Project a received word onto the code via pseudo best approximation.

    Codewords pass through unchanged.  The basis schedule is deterministic:
    first the rows of G, then, when k >= 2, for i ascending, the rows of G
    with row i replaced by row i XOR row (i+1 mod k).
    """
    if code.syndrome(y).bits == 0:
        return y
    g = code.generator()
    rows = [g.row(i) for i in range(g.rows)]
    schedule = [rows]
    if g.rows >= 2:
        schedule += [rows[:i] + [rows[i] ^ rows[(i + 1) % g.rows]] + rows[i + 1:]
                     for i in range(g.rows)]
    for candidate in schedule:
        result = pseudo_best_approx(y, Basis(tuple(candidate)))
        if result is not None:
            return result
    raise ApproxDecodeError(
        f"all {len(schedule)} scheduled bases produced a vanishing projection")
