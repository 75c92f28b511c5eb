import random

import pytest

from gridfec.families import CyclicSpec, cyclic_from_poly, hamming, repetition
from gridfec.gf2 import (
    BitMatrix,
    BitVector,
    Gf2Error,
    Gf2Poly,
    SuperMatrix,
    distance,
    eliminate,
    mat_mul,
    mat_vec,
    null_space_basis,
    poly_divide,
    rank,
    row_reduce,
    super_equal,
    super_transpose,
    transpose,
)

BV = BitVector.from_string
BM = BitMatrix.from_strings

G_124 = BM(["1000100", "0101000", "0010111"])
H_121 = BM(["0101000", "1010100", "0010010", "0010001"])
H_126 = BM(["10110", "11001"])


class TestBitVector:
    def test_string_roundtrip(self):
        assert str(BV("10110")) == "10110"
        assert len(BV("10110")) == 5

    def test_index_zero_is_leftmost(self):
        v = BV("100")
        assert v[0] == 1 and v[1] == 0 and v[2] == 0

    def test_illegal_character(self):
        with pytest.raises(Gf2Error):
            BV("10x1")

    @pytest.mark.parametrize("text, first", [("1_0", "_"), (" 10", " "), ("10\n", "\n"),
                                             ("\u0661", "\u0661"), ("0b1", "b"), ("+1", "+"),
                                             ("01x1y0", "x")])
    def test_refuses_what_int_accepts(self, text, first):
        # int(text, 2) takes underscores, surrounding whitespace, signs and
        # other scripts' digits; a bit string is only '0' and '1'.
        with pytest.raises(Gf2Error) as exc:
            BV(text)
        assert str(exc.value) == f"illegal character {first!r} in bit string"

    def test_empty_string(self):
        assert BV("") == BitVector(0, 0)

    def test_parse_matches_the_per_character_loop(self):
        rng = random.Random(5)
        for n in [*range(70), 1023, 4096]:
            text = "".join(rng.choice("01") for _ in range(n))
            assert BV(text).bits == sum(1 << i for i, ch in enumerate(text) if ch == "1")
            assert str(BV(text)) == text and len(BV(text)) == n

    def test_xor_length_mismatch(self):
        with pytest.raises(Gf2Error):
            BV("101") ^ BV("1011")

    def test_shift_right_is_cyclic(self):
        assert str(BV("1000100").shift_right()) == "0100010"
        assert str(BV("10").shift_right()) == "01"

    def test_concat_and_slice_invert(self):
        a, b = BV("1011"), BV("11011")
        joined = a.concat(b)
        assert str(joined) == "101111011"
        assert joined.slice(0, 4) == a
        assert joined.slice(4, 9) == b

    def test_slice_bounds(self):
        with pytest.raises(Gf2Error):
            BV("101").slice(1, 4)


class TestMatMul:
    def test_g_times_h_transpose_is_zero(self):
        # 3x7 generator against the 7x4 transposed parity-check matrix
        assert mat_mul(G_124, transpose(H_121)).is_zero()

    def test_identity(self):
        a = BM(["101", "110", "011"])
        assert mat_mul(BitMatrix.identity(3), a) == a

    def test_against_triple_loop_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            a = _random_matrix(rng, 3, 3)
            b = _random_matrix(rng, 3, 3)
            c = mat_mul(a, b)
            for i in range(3):
                for j in range(3):
                    acc = 0
                    for k in range(3):
                        acc ^= a.entry(i, k) & b.entry(k, j)
                    assert c.entry(i, j) == acc

    def test_dimension_mismatch(self):
        with pytest.raises(Gf2Error):
            mat_mul(G_124, H_121)

    def test_associativity_and_distribution(self):
        rng = random.Random(5)
        for _ in range(25):
            a = _random_matrix(rng, 3, 4)
            b = _random_matrix(rng, 4, 5)
            c = _random_matrix(rng, 5, 2)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
            d = _random_matrix(rng, 4, 5)
            b_plus_d = BitMatrix(4, 5, tuple(x ^ y for x, y in zip(b.row_words, d.row_words)))
            left = mat_mul(a, b_plus_d)
            right = BitMatrix(3, 5, tuple(x ^ y for x, y in zip(
                mat_mul(a, b).row_words, mat_mul(a, d).row_words)))
            assert left == right


class TestMatVec:
    def test_codeword_annihilated(self):
        assert mat_vec(H_121, BV("1101100")).bits == 0

    def test_zero_vector(self):
        assert mat_vec(H_121, BitVector.zeros(7)).bits == 0

    def test_non_codeword_has_nonzero_syndrome(self):
        assert mat_vec(H_126, BV("11110")).bits != 0

    def test_length_mismatch(self):
        with pytest.raises(Gf2Error):
            mat_vec(H_121, BV("110"))


class TestTranspose:
    def test_identity(self):
        assert transpose(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_involution(self):
        a = BM(["101101", "010010"])
        assert transpose(transpose(a)) == a

    def test_index_swap_oracle(self):
        a = BM(["101", "011"])
        t = transpose(a)
        for i in range(2):
            for j in range(3):
                assert a.entry(i, j) == t.entry(j, i)


class TestSuperTranspose:
    def test_worked_example_mod2(self):
        # 7x5 partitioned matrix with row cuts after rows 3 and 5 and a
        # column cut after column 3; integer entries reduced mod 2.
        rows_int = [
            [2, 1, 3, 5, 6],
            [0, 2, 0, 1, 1],
            [1, 1, 1, 0, 2],
            [2, 2, 0, 1, 1],
            [5, 6, 1, 0, 1],
            [2, 0, 0, 0, 4],
            [1, 0, 1, 1, 5],
        ]
        body = BitMatrix.from_strings(["".join(str(v % 2) for v in r) for r in rows_int])
        sm = SuperMatrix(body, row_cuts=(3, 5), col_cuts=(3,))
        st = super_transpose(sm)
        assert st.row_cuts == (3,)
        assert st.col_cuts == (3, 5)
        printed_t = [
            [2, 0, 1, 2, 5, 2, 1],
            [1, 2, 1, 2, 6, 0, 0],
            [3, 0, 1, 0, 1, 0, 1],
            [5, 1, 0, 1, 0, 0, 1],
            [6, 1, 2, 1, 1, 4, 5],
        ]
        expect = BitMatrix.from_strings(["".join(str(v % 2) for v in r) for r in printed_t])
        assert st.body == expect

    def test_involution(self):
        sm = SuperMatrix(BM(["1011", "0110", "1100"]), row_cuts=(1,), col_cuts=(2, 3))
        assert super_transpose(super_transpose(sm)) == sm

    def test_no_cuts_is_plain_transpose(self):
        a = BM(["101", "010"])
        assert super_transpose(SuperMatrix(a)).body == transpose(a)

    def test_bad_cuts_rejected(self):
        with pytest.raises(Gf2Error):
            SuperMatrix(BM(["101", "010"]), row_cuts=(2,))
        with pytest.raises(Gf2Error):
            SuperMatrix(BM(["101", "010"]), col_cuts=(0,))


class TestSuperEqual:
    # Same 5x5 body partitioned two ways, as in the worked equality example.
    BODY = [
        [3, 6, 0, 4, 5],
        [2, 1, 6, 3, 0],
        [1, 1, 1, 2, 1],
        [0, 1, 0, 1, 0],
        [2, 0, 1, 2, 1],
    ]

    def _body(self):
        return BitMatrix.from_strings(["".join(str(v % 2) for v in r) for r in self.BODY])

    def test_same_body_different_cuts(self):
        a = SuperMatrix(self._body(), row_cuts=(3,), col_cuts=(3,))
        b = SuperMatrix(self._body(), row_cuts=(4,), col_cuts=(4,))
        assert super_equal(a, b, structural=False)
        assert not super_equal(a, b, structural=True)

    def test_reflexive(self):
        a = SuperMatrix(self._body(), row_cuts=(3,), col_cuts=(3,))
        assert super_equal(a, a, structural=False)
        assert super_equal(a, a, structural=True)

    def test_display_markers(self):
        a = SuperMatrix(BM(["10", "01"]), row_cuts=(1,), col_cuts=(1,))
        text = str(a)
        assert "|" in text and "—" in text


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(4)) == 4

    def test_cyclic_generator(self):
        g = BM(["1011000", "0101100", "0010110", "0001011"])
        assert rank(g) == 4

    def test_exhaustive_span_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            a = _random_matrix(rng, 4, 6)
            spanned = {0}
            for w in a.row_words:
                spanned |= {s ^ w for s in spanned}
            expected = len(spanned).bit_length() - 1
            assert rank(a) == expected
            assert rank(a) == rank(transpose(a))

    def test_counts_the_pivots_of_eliminate(self):
        rng = random.Random(25)
        draws = (lambda c: rng.getrandbits(c),
                 lambda c: rng.getrandbits(c) & rng.getrandbits(c) & rng.getrandbits(c),
                 lambda c: rng.getrandbits(c) | rng.getrandbits(c) | rng.getrandbits(c))
        for trial in range(1200):
            # Every third matrix is up to 1024 bits wide; the narrow ones often
            # have more rows than columns.
            cols = rng.randint(1, 1024) if trial % 3 == 0 else rng.randint(1, 16)
            draw = rng.choice(draws)
            words = [draw(cols) for _ in range(rng.randint(0, min(2 * cols, 24)))]
            extra = rng.randint(0, 4)
            if words:  # sums of two rows (zero when both picks agree) and repeats
                words += [rng.choice(words) ^ rng.choice(words) for _ in range(extra)]
                words += rng.choices(words, k=extra)
            else:
                words = [0] * extra
            rng.shuffle(words)
            a = BitMatrix(len(words), cols, tuple(words))
            assert rank(a) == len(eliminate(list(words), range(cols)))

    def test_long_cyclic_generator(self):
        g = cyclic_from_poly(CyclicSpec(1023, Gf2Poly.from_string("11"))).generator()
        assert rank(g) == len(eliminate(list(g.row_words), range(g.cols))) == 1022


def _eliminate_reference(words: list[int], columns) -> list[int]:
    """The per-row elimination loop that `eliminate` replaced, kept as its oracle."""
    pivots: list[int] = []
    for j in columns:
        r = len(pivots)
        pivot = next((i for i in range(r, len(words)) if (words[i] >> j) & 1), None)
        if pivot is None:
            continue
        words[r], words[pivot] = words[pivot], words[r]
        for i in range(len(words)):
            if i != r and (words[i] >> j) & 1:
                words[i] ^= words[r]
        pivots.append(j)
    return pivots


class TestEliminate:
    def test_matches_the_reference_loop(self):
        rng = random.Random(11)
        for trial in range(1500):
            rows, cols = rng.randint(0, 9), rng.randint(1, 12)
            density = rng.choice((0.1, 0.5, 0.9))
            start = [sum(1 << j for j in range(cols) if rng.random() < density)
                     for _ in range(rows)]
            columns = list(range(cols))
            if trial % 2:
                rng.shuffle(columns)
            if trial % 3 == 0:  # a partial list, as _standard's range(k, n)
                columns = columns[rng.randint(0, cols):]
            got, want = list(start), list(start)
            assert eliminate(got, columns) == _eliminate_reference(want, columns)
            assert got == want

    def test_partial_range_of_a_code(self):
        for h in (H_121, H_126, repetition(17).h, hamming(4).h):
            k = h.cols - rank(h)
            got, want = list(h.row_words), list(h.row_words)
            assert eliminate(got, range(k, h.cols)) == _eliminate_reference(want, range(k, h.cols))
            assert got == want

    def test_in_place_on_the_callers_list(self):
        words = [0b011, 0b110]
        same = words
        assert eliminate(words, range(3)) == [0, 1]
        assert same is words and words == [0b101, 0b110]


class TestWeightDistance:
    def test_worked_distance(self):
        assert distance(BV("1011110"), BV("0111101")) == 4

    def test_worked_weight(self):
        assert BV("1011110").weight() == 5

    def test_distance_to_self(self):
        assert distance(BV("10101"), BV("10101")) == 0

    def test_distance_is_weight_of_xor(self):
        rng = random.Random(17)
        for _ in range(100):
            x = BitVector(8, rng.getrandbits(8))
            y = BitVector(8, rng.getrandbits(8))
            assert distance(x, y) == (x ^ y).weight()

    def test_length_mismatch(self):
        with pytest.raises(Gf2Error):
            distance(BV("10"), BV("100"))


class TestPolyDivide:
    def test_x7_plus_1_by_generator(self):
        q, r = poly_divide(Gf2Poly.x_pow_plus_one(7), Gf2Poly.from_string("1011"))
        assert str(q) == "10111"  # x^4 + x^3 + x^2 + 1
        assert r.is_zero()

    def test_divide_by_one(self):
        p = Gf2Poly.from_string("1101")
        q, r = poly_divide(p, Gf2Poly.one())
        assert q == p and r.is_zero()

    def test_schoolbook_oracle_case(self):
        # (x^5 + 1) / (x^2 + 1): schoolbook long division gives
        # quotient x^3 + x, remainder x + 1.
        q, r = poly_divide(Gf2Poly.from_string("100001"), Gf2Poly.from_string("101"))
        assert str(q) == "0101"
        assert str(r) == "11"

    def test_zero_divisor_rejected(self):
        with pytest.raises(Gf2Error):
            poly_divide(Gf2Poly.from_string("101"), Gf2Poly(0))

    def test_reconstruction_random(self):
        rng = random.Random(23)
        for _ in range(1000):
            num = Gf2Poly(rng.getrandbits(17))
            den = Gf2Poly(rng.getrandbits(17) | 1)
            q, r = poly_divide(num, den)
            assert q * den + r == num
            if not r.is_zero():
                assert r.degree() < den.degree()

    def test_zero_polynomial_has_no_degree(self):
        assert Gf2Poly(0).is_zero()
        with pytest.raises(Gf2Error):
            Gf2Poly(0).degree()


class TestPolyText:
    def test_zero_prints_as_zero(self):
        assert str(Gf2Poly(0)) == "0"

    def test_string_roundtrip(self):
        for text in ("1", "11", "1011", "0001", "10111"):
            assert str(Gf2Poly.from_string(text)) == text
        p = Gf2Poly(0b1101001)
        assert Gf2Poly.from_string(str(p)) == p

    def test_illegal_character(self):
        with pytest.raises(Gf2Error):
            Gf2Poly.from_string("10x1")


class TestNullSpace:
    def test_basis_annihilated(self):
        for mat in (H_121, H_126, BM(["111"])):
            for v in null_space_basis(mat):
                assert mat_vec(mat, v).bits == 0

    def test_basis_size(self):
        assert len(null_space_basis(H_121)) == 3

    def test_matches_frozen_loop(self):
        rng = random.Random(22)
        for _ in range(500):
            mat = _random_matrix(rng, rng.randint(0, 10), rng.randint(0, 12))
            assert null_space_basis(mat) == _null_space_reference(mat)


def _null_space_reference(a: BitMatrix) -> list[BitVector]:
    """The per-column loop that `null_space_basis` replaced, kept as its oracle."""
    rref, pivots = row_reduce(a)
    pivot_set = set(pivots)
    basis = []
    for f in range(a.cols):
        if f in pivot_set:
            continue
        bits = 1 << f
        for r, p in enumerate(pivots):
            if (rref.row_words[r] >> f) & 1:
                bits |= 1 << p
        basis.append(BitVector(a.cols, bits))
    return basis


def _random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
