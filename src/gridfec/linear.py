"""Binary (n, k) linear block codes: construction, syndromes, coset decoding.

A code is the null space of its parity-check matrix H.  Every value here is
immutable after construction; derived forms (the systematic form, both
bases, codewords, weight distribution) are computed once and cached, and
coset leaders are found lazily, by one support walk resumed as far as each
lookup needs.  Enumeration runs over ints, from the smaller of C and C-dual.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from itertools import chain, combinations, islice, repeat
from operator import xor
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .gf2 import (
    BitMatrix,
    BitVector,
    eliminate,
    mat_mul,
    mat_vec,
    mat_vec_bits,
    null_space,
    null_space_basis,
    rank,
    transpose,
)

if TYPE_CHECKING:
    from fractions import Fraction

# A syndrome is just a BitVector of length n - k.
Syndrome = BitVector

# Enumeration guards; every instance in scope sits far below these.
MAX_MESSAGE_BITS = 24
# Supports the coset-leader walk of one code may visit, over all its lookups;
# repetition(21)'s full table takes 2^20 - 1.  Read at each lookup.
COSET_WALK_BUDGET = 1 << 20
MAX_CODE_LENGTH = 1024  # longest code weighed through its dual; specio refuses longer spec codes


def _span(rows: Sequence[int]) -> Iterator[int]:
    """Every vector spanned by the independent `rows`, as ints: each vector of
    the first half's span XOR each of the second half's, so the walk runs in C."""
    low, high = [0], [0]
    for i, r in enumerate(rows):
        half = low if 2 * i < len(rows) else high
        half.extend([w ^ r for w in half])
    return chain.from_iterable(map(h.__xor__, low) for h in high)


class CodeError(ValueError):
    """Raised on invalid code constructions or decode inputs."""


class CapacityError(CodeError):
    """Raised when an enumeration guard (2^k codewords) or the coset-leader walk's
    budget of supports is exceeded."""


class _Leaders(dict):
    """Coset leaders by syndrome bits, found by one resumable support walk.

    Supports are walked one at a time by ascending weight, each weight in
    ascending lexicographic order, and the first support seen with each
    syndrome is its leader, so ties go to the smallest support.  Looking up a
    syndrome not yet found resumes the walk until it appears, recording every
    syndrome seen first on the way; the lookup stops at its leader's support,
    so the lookup of syndrome(e) walks no support heavier than e, and
    `walked` is the exact number of supports visited.  Each support is one
    packed int: position i packs as column i of H (the syndrome of {i}) plus
    the unit bit 1 << (shift + i), so one XOR over a support's positions gives
    its syndrome below bit `shift` and the support above.  The walk visits at
    most COSET_WALK_BUDGET supports in all, then raises CapacityError without
    losing a support, so a lookup under a raised budget resumes where it
    stopped.  Iteration shows the leaders found so far, in walk order.
    """

    __slots__ = ("cosets", "walked", "_shift", "_words")

    def __init__(self, columns: tuple[int, ...], cosets: int) -> None:
        super().__init__({0: 0})
        self.cosets = cosets
        self.walked = 0  # supports visited so far, over all lookups
        # The syndrome width, from the widest column: H may have dependent rows.
        self._shift = shift = max(columns).bit_length()
        words = [c | 1 << (shift + i) for i, c in enumerate(columns)]
        # Every nonzero support, packed, in walk order; the columns reach every coset.
        self._words = chain.from_iterable(
            map(reduce, repeat(xor), combinations(words, w)) for w in range(1, len(words) + 1))

    def __missing__(self, syndrome: int) -> int:
        if not syndrome >> self._shift:  # no support is wider than the widest column
            self._walk(syndrome)
        if syndrome not in self:
            raise KeyError(syndrome)
        return self[syndrome]

    def complete(self) -> None:
        """Run the walk to its end, so that every coset has its leader."""
        if self.cosets - 1 > COSET_WALK_BUDGET:
            raise CapacityError(f"{self.cosets} cosets exceed the coset-walk budget of "
                                f"{COSET_WALK_BUDGET} supports")
        self._walk(None)

    def _walk(self, target: Optional[int]) -> None:
        """Walk on until `target` has a leader or every coset has one."""
        cosets, shift = self.cosets, self._shift
        if target in self or len(self) == cosets:
            return
        budget, walked = COSET_WALK_BUDGET, self.walked
        low, setdefault = (1 << shift) - 1, self.setdefault
        try:
            # islice stops before taking a support past the budget, so none is lost.
            for word in islice(self._words, max(budget - walked, 0)):
                syndrome = word & low
                setdefault(syndrome, word >> shift)  # the first support seen per syndrome
                walked += 1
                if syndrome == target or len(self) == cosets:
                    return
        finally:
            self.walked = walked
        raise CapacityError(f"the coset-leader walk passed its budget of {budget} supports")


class LinearCode:
    """An (n, k) binary linear code defined by a parity-check matrix."""

    def __init__(self, h: BitMatrix, g: Optional[BitMatrix] = None):
        if h.rows == 0 or h.cols == 0:
            raise CodeError("parity-check matrix must be non-empty")
        if h.cols < h.rows:
            raise CodeError("parity-check matrix needs at least as many columns as rows")
        self.h = h
        self.n = h.cols
        words = list(h.row_words)
        self._pivots = eliminate(words, range(h.cols))
        # H's independent rows, reduced: a basis of the dual code, as ints.
        self._dual_basis = tuple(words[:len(self._pivots)])
        self.k = h.cols - len(self._dual_basis)
        if g is not None:
            if g.cols != self.n:
                raise CodeError(f"generator width {g.cols} does not match length {self.n}")
            if rank(g) != g.rows:
                raise CodeError("generator matrix has dependent rows")
            if g.rows != self.k:
                raise CodeError(f"generator has {g.rows} rows but the code has dimension {self.k}")
            # G is orthogonal to H iff every row of G has a zero syndrome.
            if any(mat_vec_bits(h.row_words, w) for w in g.row_words):
                raise CodeError("generator and parity-check matrices are not orthogonal")
        self._g = g

    @classmethod
    def from_parity(cls, h: BitMatrix) -> "LinearCode":
        return cls(h)

    @classmethod
    def from_generator(cls, g: BitMatrix) -> "LinearCode":
        """Build the row-space code of g; derives a parity-check matrix."""
        if g.rows == 0 or g.cols == 0:
            raise CodeError("generator matrix must be non-empty")
        dual_rows = null_space_basis(g)
        # The full space has an empty dual; a single zero row keeps H non-empty.
        h = BitMatrix.from_rows(dual_rows) if dual_rows else BitMatrix(1, g.cols, (0,))
        return cls(h, g)

    # -- basic parameters ------------------------------------------------

    def transmission_rate(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.k, self.n)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    # -- encoding / membership -------------------------------------------

    def generator(self) -> BitMatrix:
        """The generator matrix: as given, else derived by standardization."""
        return self._g if self._g is not None else self._standard[1]

    def encode(self, a: BitVector) -> BitVector:
        g = self.generator()
        if a.length != self.k:
            raise CodeError(f"message length {a.length} does not match k={self.k}")
        return mat_mul(BitMatrix.from_rows([a]), g).row(0)

    def syndrome(self, y: BitVector) -> Syndrome:
        if y.length != self.n:
            raise CodeError(f"word length {y.length} does not match n={self.n}")
        return mat_vec(self.h, y)

    def is_member(self, y: BitVector) -> bool:
        return self.syndrome(y).bits == 0

    @cached_property
    def codewords(self) -> frozenset[BitVector]:
        """All 2^k codewords (guarded by MAX_MESSAGE_BITS)."""
        if self.k > MAX_MESSAGE_BITS:
            raise CapacityError(f"k={self.k} exceeds the enumeration guard of {MAX_MESSAGE_BITS}")
        return frozenset(BitVector(self.n, w) for w in _span(self._basis))

    @cached_property
    def _basis(self) -> tuple[int, ...]:
        """A basis of the code, as ints: the rows of the given G, else the null space of
        H, read from its reduced rows and pivots."""
        if self._g is not None:
            return self._g.row_words
        return tuple(null_space(self._dual_basis, self._pivots, self.n))

    # -- standard form ----------------------------------------------------

    def standardize(self) -> tuple[BitMatrix, BitMatrix]:
        """Row-reduce H to (A, I_{n-k}) and pair it with G = (I_k, A^T).

        Column permutations are refused: coordinate order is load-bearing
        for the super compositions, so a non-systematic layout is an error.
        """
        return self._standard

    @cached_property
    def _standard(self) -> tuple[BitMatrix, BitMatrix]:
        """(h_std, g_std), computed once; a refusal raises again on every read."""
        m = self.n - self.k
        words = list(self.h.row_words)
        pivots = eliminate(words, range(self.k, self.n))
        for j in range(self.k, self.n):
            if j not in pivots:
                raise CodeError(
                    f"column {j} admits no pivot: H is not row-reducible to (A, I) "
                    "without column swaps")
        h_std = BitMatrix(m, self.n, tuple(words[:m]))
        # The free columns are 0 .. k-1, so the null space is (I_k, A^T) row by row.
        g_std = BitMatrix(self.k, self.n, tuple(null_space(words[:m], pivots, self.n)))
        return h_std, g_std

    # -- distances ---------------------------------------------------------

    @cached_property
    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_n), the number of codewords of each weight.

        Walks the smaller of the code and its dual (the row space of H).  From
        the dual's B_i, A_j = 2^-(n-k) sum_i B_i K_j(i) (MacWilliams identity),
        with (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i) (Krawtchouk).
        """
        n, m = self.n, self.n - self.k
        if min(self.k, m) > MAX_MESSAGE_BITS:
            raise CapacityError(f"k={self.k} and n-k={m} exceed the guard of {MAX_MESSAGE_BITS}")
        if self.k > m and n > MAX_CODE_LENGTH:
            # The transform holds n + 1 integers of up to n bits each.
            raise CapacityError(f"n={n} exceeds the transform guard of {MAX_CODE_LENGTH}")
        small = self._basis if self.k <= m else self._dual_basis
        found = Counter(map(int.bit_count, _span(small)))
        if self.k <= m:
            return tuple(found[j] for j in range(n + 1))
        a = [0] * (n + 1)
        for i, b in found.items():
            prev, cur = 0, 1  # K_{j-1}(i), K_j(i) from j = 0
            for j in range(n + 1):
                a[j] += b * cur
                prev, cur = cur, ((n - 2 * i) * cur - (n - j + 1) * prev) // (j + 1)
        return tuple(x >> m for x in a)

    def min_distance(self) -> int:
        """The least weight of a nonzero codeword."""
        if self.k < 1:
            raise CodeError("the zero code has no nonzero codeword")
        return next(j for j, a in enumerate(self.weight_distribution) if j and a)

    def error_capability(self) -> int:
        """t = floor((d - 1) / 2)."""
        return (self.min_distance() - 1) // 2

    def can_correct_and_detect(self, t: int, s: int) -> bool:
        """Whether t errors are correctable while detecting up to t + s.

        Uses the bound 2t + s + 1 <= d_min.
        """
        if t < 0 or s < 0:
            raise CodeError("error counts must be non-negative")
        return 2 * t + s + 1 <= self.min_distance()

    # -- coset decoding ----------------------------------------------------

    @cached_property
    def leader_bits(self) -> dict[int, int]:
        """Map from a syndrome's bits (`syndrome(y).bits`) to its minimum-weight leader's bits.

        Ties between minimum-weight vectors are broken toward the smallest
        support (earliest flipped positions), matching the worked coset tables.
        The map is lazy: a lookup walks supports only as far as its syndrome's
        leader, so iterating it shows only the leaders found so far, and the
        walk raises CapacityError past COSET_WALK_BUDGET supports.  A syndrome
        no support reaches raises KeyError, at once if it is negative or wider
        than H's widest column.  Read it by subscript; `in` and `.get` do not walk.
        """
        return _Leaders(transpose(self.h).row_words, 1 << (self.n - self.k))

    @cached_property
    def coset_table(self) -> dict[int, BitVector]:
        """Every coset's leader as a BitVector, in walk order: the walk of
        `leader_bits` run to its end.  CapacityError, before any walking,
        when 2^(n-k) - 1 supports would exceed COSET_WALK_BUDGET."""
        self.leader_bits.complete()
        return {s: BitVector(self.n, e) for s, e in self.leader_bits.items()}

    def decode(self, y: BitVector) -> tuple[BitVector, BitVector]:
        """Coset-leader decoding: returns (codeword, presumed error)."""
        e = BitVector(self.n, self.leader_bits[self.syndrome(y).bits])
        return y ^ e, e

    # -- derived codes -----------------------------------------------------

    def dual(self) -> "LinearCode":
        """The orthogonal code: generator and parity-check roles swap."""
        if not self.k:
            # Dual of the zero code is the full space.
            return LinearCode.from_generator(BitMatrix.identity(self.n))
        g_dual = BitMatrix(self.n - self.k, self.n, self._dual_basis) if self.k < self.n else None
        return LinearCode(BitMatrix(self.k, self.n, self._basis), g_dual)

    def is_cyclic(self) -> bool:
        """True iff every codeword's cyclic shift is a codeword; by linearity, a basis suffices."""
        n, rows = self.n, self.h.row_words
        # The right cyclic shift of w; for n = 1 it is w itself.
        return not any(mat_vec_bits(rows, (w << 1 | w >> n - 1) & ((1 << n) - 1))
                       for w in self._basis)
