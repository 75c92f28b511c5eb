"""Dense GF(2) vectors, matrices, polynomials and partitioned supermatrices.

Bits are packed into Python ints.  Index 0 is always the leftmost symbol as
printed ("1011" has bit 0 = 1, bit 3 = 1); polynomial index i is the
coefficient of x**i, so x^3 + x^2 + 1 prints as "1011".  `Value` is the base
of every immutable value class in the package.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

_set = object.__setattr__  # how a value's own __init__ sets its fields


class Gf2Error(ValueError):
    """Raised on dimension mismatches and other GF(2) value errors."""


class Value:
    """Base of gridfec's immutable value classes.

    A subclass names its fields in `__slots__`, in the order of its
    constructor's positional parameters, and sets each once in `__init__`
    with `object.__setattr__`.  Equality, hash, repr, pickling and copying
    come from the fields; assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    _values: Callable[["Value"], tuple]  # the field tuple, set per subclass

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name gives the bare field; wrap it so that every
        # value compares and hashes as its field tuple.
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class BitVector(Value):
    """An immutable vector over GF(2); bit i sits at 1 << i of `bits`."""

    __slots__ = ("length", "bits")
    length: int
    bits: int

    def __init__(self, length: int, bits: int) -> None:
        if length < 0:
            raise Gf2Error("vector length must be non-negative")
        if not 0 <= bits < (1 << length):
            raise Gf2Error("bit pattern does not fit the stated length")
        _set(self, "length", length)
        _set(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if bad := text.strip("01"):  # starts at the first character that is neither
            raise Gf2Error(f"illegal character {bad[0]!r} in bit string")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise Gf2Error(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __repr__(self) -> str:
        return f"BitVector({str(self)!r})"

    def weight(self) -> int:
        return self.bits.bit_count()

    def with_flipped(self, positions: Iterable[int]) -> "BitVector":
        bits = self.bits
        for p in positions:
            if not 0 <= p < self.length:
                raise Gf2Error(f"position {p} out of range for length {self.length}")
            bits ^= 1 << p
        return BitVector(self.length, bits)

    def shift_right(self) -> "BitVector":
        """Right cyclic shift: (a0 .. a_{n-1}) -> (a_{n-1}, a0, .., a_{n-2})."""
        n = self.length
        if n <= 1:
            return self
        mask = (1 << n) - 1
        return BitVector(n, ((self.bits << 1) | (self.bits >> (n - 1))) & mask)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.length + other.length, self.bits | (other.bits << self.length))

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.length:
            raise Gf2Error(f"slice [{start}:{stop}] out of range for length {self.length}")
        width = stop - start
        return BitVector(width, (self.bits >> start) & ((1 << width) - 1))


def distance(x: BitVector, y: BitVector) -> int:
    """Hamming distance: the weight of the difference."""
    return (x ^ y).weight()


class BitMatrix(Value):
    """An immutable row-major GF(2) matrix; each row packed as an int."""

    __slots__ = ("rows", "cols", "row_words")
    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_words: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise Gf2Error("matrix dimensions must be non-negative")
        if len(row_words) != rows:
            raise Gf2Error("row count does not match stored rows")
        limit = 1 << cols
        if any(not 0 <= w < limit for w in row_words):
            raise Gf2Error("row data wider than stated column count")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "row_words", row_words)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        return cls.from_rows([BitVector.from_string(r) for r in rows])

    @classmethod
    def from_rows(cls, rows: Sequence[BitVector]) -> "BitMatrix":
        if not rows:
            return cls(0, 0, ())
        cols = rows[0].length
        if any(v.length != cols for v in rows):
            raise Gf2Error("rows have differing lengths")
        return cls(len(rows), cols, tuple(v.bits for v in rows))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_words[i])

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return (self.row_words[i] >> j) & 1

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.row_words)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))

    def __repr__(self) -> str:
        return f"BitMatrix({[str(self.row(i)) for i in range(self.rows)]})"


def transpose(a: BitMatrix) -> BitMatrix:
    words = [0] * a.cols
    for i, w in enumerate(a.row_words):
        while w:
            j = (w & -w).bit_length() - 1
            words[j] |= 1 << i
            w &= w - 1
    return BitMatrix(a.cols, a.rows, tuple(words))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product: XOR-accumulated AND."""
    if a.cols != b.rows:
        raise Gf2Error(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = []
    for w in a.row_words:
        acc = 0
        ww = w
        while ww:
            k = (ww & -ww).bit_length() - 1
            acc ^= b.row_words[k]
            ww &= ww - 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def mat_vec(a: BitMatrix, x: BitVector) -> BitVector:
    if a.cols != x.length:
        raise Gf2Error(f"dimension mismatch: {a.rows}x{a.cols} times length-{x.length} vector")
    return BitVector(a.rows, mat_vec_bits(a.row_words, x.bits))


def mat_vec_bits(row_words: Sequence[int], x: int) -> int:
    """Packed matrix times packed vector: bit i is the parity of row i AND x."""
    bits = 0
    for i, w in enumerate(row_words):
        bits |= ((w & x).bit_count() & 1) << i
    return bits


def eliminate(words: list[int], columns: Iterable[int]) -> list[int]:
    """Gauss-Jordan elimination of packed rows, in place, over `columns` in order.

    A column with a set bit at or below the next pivot row gets a pivot: that
    row is swapped up and the bit is cleared from every other row.  Columns
    without one are skipped, and the walk stops once every row holds a pivot.
    Returns the pivot columns; pivot i sits in row i.
    """
    pivots: list[int] = []
    rows = len(words)
    for j in columns:
        r = len(pivots)
        bit = 1 << j
        for pivot in range(r, rows):
            if words[pivot] & bit:
                break
        else:
            continue
        row = words[pivot]
        words[pivot] = words[r]
        words[:] = [w ^ row if w & bit else w for w in words]
        words[r] = row  # the comprehension cleared the pivot row too
        pivots.append(j)
        if r + 1 == rows:  # every row holds a pivot: no column can get another
            break
    return pivots


def rank(a: BitMatrix) -> int:
    """The number of independent rows.  Each row is reduced by the rows kept so
    far, keyed by their leading bit, and kept if anything is left: one XOR per
    kept row it meets, where `eliminate` clears a pivot from every row."""
    kept: dict[int, int] = {}
    for w in a.row_words:
        while w:
            lead = w.bit_length()
            row = kept.get(lead)
            if row is None:
                kept[lead] = w
                break
            w ^= row
    return len(kept)


def row_reduce(a: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    words = list(a.row_words)
    pivots = eliminate(words, range(a.cols))
    return BitMatrix(a.rows, a.cols, tuple(words)), pivots


def null_space(words: Sequence[int], pivots: Sequence[int], cols: int) -> list[int]:
    """A basis of the null space of rows reduced by `eliminate` (pivot i in row i),
    as ints: per free column f, bit f plus the pivot bit of every row holding f."""
    free = sorted(set(range(cols)) - set(pivots))
    return [(1 << f) | sum(1 << p for w, p in zip(words, pivots) if w >> f & 1) for f in free]


def null_space_basis(a: BitMatrix) -> list[BitVector]:
    """A basis of {x : a @ x = 0}, one vector per free column."""
    words = list(a.row_words)
    pivots = eliminate(words, range(a.cols))
    return [BitVector(a.cols, v) for v in null_space(words, pivots, a.cols)]


class Gf2Poly(Value):
    """Polynomial over GF(2); bit i of `coeffs` is the coefficient of x**i.

    The zero polynomial is coeffs == 0; its degree is undefined, query
    is_zero() instead.
    """

    __slots__ = ("coeffs",)
    coeffs: int

    def __init__(self, coeffs: int) -> None:
        if coeffs < 0:
            raise Gf2Error("polynomial bits must be non-negative")
        _set(self, "coeffs", coeffs)

    @classmethod
    def from_string(cls, text: str) -> "Gf2Poly":
        return cls(BitVector.from_string(text).bits)

    @classmethod
    def one(cls) -> "Gf2Poly":
        return cls(1)

    @classmethod
    def x_pow_plus_one(cls, n: int) -> "Gf2Poly":
        """x**n - 1, which over GF(2) is x**n + 1."""
        if n < 1:
            raise Gf2Error("exponent must be at least 1")
        return cls((1 << n) | 1)

    def is_zero(self) -> bool:
        return self.coeffs == 0

    def degree(self) -> int:
        if self.coeffs == 0:
            raise Gf2Error("degree of the zero polynomial is undefined")
        return self.coeffs.bit_length() - 1

    def coefficient(self, i: int) -> int:
        return (self.coeffs >> i) & 1

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.coeffs ^ other.coeffs)

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        a, b = self.coeffs, other.coeffs
        acc = 0
        while a:
            i = (a & -a).bit_length() - 1
            acc ^= b << i
            a &= a - 1
        return Gf2Poly(acc)

    def __str__(self) -> str:
        return str(BitVector(self.coeffs.bit_length(), self.coeffs)) or "0"

    def __repr__(self) -> str:
        return f"Gf2Poly({str(self)!r})"


def poly_divide(num: Gf2Poly, den: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
    """Long division over GF(2): num = quotient*den + remainder."""
    if den.is_zero():
        raise Gf2Error("division by the zero polynomial")
    n, d = num.coeffs, den.coeffs
    dd = d.bit_length()
    q = 0
    while n.bit_length() >= dd:
        shift = n.bit_length() - dd
        q |= 1 << shift
        n ^= d << shift
    return Gf2Poly(q), Gf2Poly(n)


class SuperMatrix(Value):
    """A BitMatrix with interior partition lines between rows and columns."""

    __slots__ = ("body", "row_cuts", "col_cuts")
    body: BitMatrix
    row_cuts: tuple[int, ...]
    col_cuts: tuple[int, ...]

    def __init__(self, body: BitMatrix, row_cuts: tuple[int, ...] = (),
                 col_cuts: tuple[int, ...] = ()) -> None:
        _check_cuts(row_cuts, body.rows, "row")
        _check_cuts(col_cuts, body.cols, "column")
        _set(self, "body", body)
        _set(self, "row_cuts", row_cuts)
        _set(self, "col_cuts", col_cuts)

    def block_row_spans(self) -> list[tuple[int, int]]:
        return _spans(self.row_cuts, self.body.rows)

    def block_col_spans(self) -> list[tuple[int, int]]:
        return _spans(self.col_cuts, self.body.cols)

    def __str__(self) -> str:
        col_cut_set = set(self.col_cuts)
        row_cut_set = set(self.row_cuts)
        lines = []
        width = None
        for i in range(self.body.rows):
            if i in row_cut_set:
                lines.append("—" * width if width else "—")
            parts = []
            for j in range(self.body.cols):
                if j in col_cut_set:
                    parts.append("|")
                parts.append(str(self.body.entry(i, j)))
            line = " ".join(parts)
            width = len(line)
            lines.append(line)
        return "\n".join(lines)


def _check_cuts(cuts: tuple[int, ...], dim: int, what: str) -> None:
    if list(cuts) != sorted(set(cuts)):
        raise Gf2Error(f"{what} cuts must be strictly increasing")
    if any(not 0 < c < dim for c in cuts):
        raise Gf2Error(f"{what} cuts must lie strictly inside the matrix")


def _spans(cuts: tuple[int, ...], dim: int) -> list[tuple[int, int]]:
    edges = [0, *cuts, dim]
    return list(zip(edges, edges[1:]))


def super_transpose(m: SuperMatrix) -> SuperMatrix:
    """Transpose the body and swap the two cut lists."""
    return SuperMatrix(transpose(m.body), row_cuts=m.col_cuts, col_cuts=m.row_cuts)


def super_equal(a: SuperMatrix, b: SuperMatrix, structural: bool = False) -> bool:
    """Body equality; with structural=True the cut lists must match too."""
    return a == b if structural else a.body == b.body
