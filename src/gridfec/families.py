"""Constructors for the classical code families: repetition, parity-check,
Hamming, and cyclic codes built from a generator polynomial."""

from __future__ import annotations

from .gf2 import BitMatrix, Gf2Poly, Value, _set, poly_divide
from .linear import CodeError, LinearCode


def repetition(n: int) -> LinearCode:
    """The (n, 1) code {0^n, 1^n}; H is an all-ones column beside I_{n-1}."""
    if n < 2:
        raise CodeError("repetition code needs length at least 2")
    words = tuple(1 | (1 << (i + 1)) for i in range(n - 1))
    h = BitMatrix(n - 1, n, words)
    g = BitMatrix(1, n, ((1 << n) - 1,))
    return LinearCode(h, g)


def parity_check(n: int) -> LinearCode:
    """The (n, n-1) code of all even-weight words; H is a single row of ones."""
    if n < 2:
        raise CodeError("parity-check code needs length at least 2")
    h = BitMatrix(1, n, ((1 << n) - 1,))
    return LinearCode(h)


def hamming(m: int) -> LinearCode:
    """The (2^m - 1, 2^m - 1 - m) Hamming code.

    Canonical column order: column j (1-indexed) is the m-bit binary
    representation of j with the most significant bit in the top row.
    """
    if m < 2:
        raise CodeError("Hamming code needs m >= 2")
    n = (1 << m) - 1
    words = []
    for r in range(m):
        bits = 0
        for j in range(1, n + 1):
            if (j >> (m - 1 - r)) & 1:
                bits |= 1 << (j - 1)
        words.append(bits)
    return LinearCode(BitMatrix(m, n, tuple(words)))


class CyclicSpec(Value):
    """Length n together with a generator polynomial dividing x^n - 1."""

    __slots__ = ("n", "g")
    n: int
    g: Gf2Poly

    def __init__(self, n: int, g: Gf2Poly) -> None:
        if g.is_zero():
            raise CodeError("generator polynomial must be nonzero")
        if g.degree() >= n:
            raise CodeError(f"deg(g)={g.degree()} must be below n={n}")
        _, rem = poly_divide(Gf2Poly.x_pow_plus_one(n), g)
        if not rem.is_zero():
            raise CodeError(f"{g} does not divide x^{n} - 1")
        _set(self, "n", n)
        _set(self, "g", g)

    @property
    def k(self) -> int:
        return self.n - self.g.degree()


def cyclic_from_poly(spec: CyclicSpec) -> LinearCode:
    """The cyclic code with generator rows g, xg, ..., x^(k-1) g."""
    k = spec.k
    g_bits = spec.g.coeffs
    rows = tuple(g_bits << i for i in range(k))
    gen = BitMatrix(k, spec.n, rows)
    if spec.g.degree() == 0:
        return LinearCode.from_generator(gen)  # g = 1: the full space
    h = parity_matrix_from_h(spec.n, parity_poly(spec))
    return LinearCode(h, gen)


def parity_poly(spec: CyclicSpec) -> Gf2Poly:
    """h = (x^n - 1) / g."""
    quot, _ = poly_divide(Gf2Poly.x_pow_plus_one(spec.n), spec.g)
    return quot


def parity_matrix_from_h(n: int, h: Gf2Poly) -> BitMatrix:
    """The staircase parity-check matrix built from reversed h coefficients.

    Row i carries h_k ... h_1 h_0 right-aligned for the bottom row and
    stepped one column left per row above it.
    """
    if h.is_zero():
        raise CodeError("parity polynomial must be nonzero")
    k = h.degree()
    if not 0 < k < n:
        raise CodeError(f"deg(h)={k} must lie strictly between 0 and n={n}")
    m = n - k
    reversed_bits = 0
    for i in range(k + 1):
        if h.coefficient(i):
            reversed_bits |= 1 << (k - i)
    rows = tuple(reversed_bits << (m - 1 - i) for i in range(m))
    return BitMatrix(m, n, rows)
