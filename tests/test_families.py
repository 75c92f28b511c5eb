import pytest

from gridfec.families import (
    CyclicSpec,
    cyclic_from_poly,
    hamming,
    parity_check,
    parity_matrix_from_h,
    parity_poly,
    repetition,
)
from gridfec.gf2 import BitMatrix, BitVector, Gf2Poly, mat_vec
from gridfec.linear import CodeError

BV = BitVector.from_string
BM = BitMatrix.from_strings

CYCLIC_74_WORDS = {
    "0000000", "1011000", "0101100", "0010110", "0001011", "1110100",
    "1001110", "1010011", "0111010", "0100111", "0011101", "1100010",
    "1111111", "1000101", "0110001", "1101001",
}


class TestRepetition:
    def test_h_matches_composition_block(self):
        assert repetition(6).h == BM(
            ["110000", "101000", "100100", "100010", "100001"])

    def test_two_codewords_only(self):
        for n in (2, 3, 5, 8):
            code = repetition(n)
            assert {str(w) for w in code.codewords} == {"0" * n, "1" * n}

    def test_minimum_length(self):
        with pytest.raises(CodeError):
            repetition(1)

    def test_distance_and_capability(self):
        assert repetition(5).min_distance() == 5
        assert repetition(5).error_capability() == 2


class TestParityCheck:
    def test_three(self):
        assert {str(w) for w in parity_check(3).codewords} == {"000", "110", "101", "011"}

    def test_four_all_even(self):
        words = parity_check(4).codewords
        assert len(words) == 8
        assert all(w.weight() % 2 == 0 for w in words)

    def test_zero_always_included(self):
        for n in (2, 5, 7):
            assert BitVector.zeros(n) in parity_check(n).codewords

    def test_minimum_length(self):
        with pytest.raises(CodeError):
            parity_check(1)


class TestHamming:
    def test_canonical_h_for_m3(self):
        assert hamming(3).h == BM(["0001111", "0110011", "1010101"])

    def test_m2(self):
        code = hamming(2)
        assert (code.n, code.k) == (3, 1)
        assert {str(w) for w in code.codewords} == {"000", "111"}

    def test_m4_shape(self):
        code = hamming(4)
        assert (code.n, code.k) == (15, 11)
        # The worked example names this a distance-4 code; the computed
        # minimum distance of a (15, 11) Hamming code is 3.
        assert code.min_distance() == 3

    def test_single_error_correction(self):
        for m in (2, 3, 4):
            code = hamming(m)
            assert code.min_distance() == 3
            word = next(iter(code.codewords))
            for pos in range(code.n):
                decoded, err = code.decode(word.with_flipped([pos]))
                assert decoded == word
                assert err.weight() == 1

    def test_permuted_column_order_accepted_via_parity(self):
        # A Hamming (7, 4) matrix in a different column order is a valid,
        # equivalent code; only binary-of-index is emitted by hamming().
        from gridfec.linear import LinearCode
        h = BM(["1001101", "0101011", "0010111"])
        code = LinearCode.from_parity(h)
        assert (code.n, code.k) == (7, 4)
        assert code.min_distance() == 3
        assert code.h != hamming(3).h

    def test_minimum_m(self):
        with pytest.raises(CodeError):
            hamming(1)


class TestCyclicFromPoly:
    SPEC = CyclicSpec(7, Gf2Poly.from_string("1011"))

    def test_generator_rows(self):
        assert cyclic_from_poly(self.SPEC).generator() == BM(
            ["1011000", "0101100", "0010110", "0001011"])

    def test_sixteen_codewords(self):
        code = cyclic_from_poly(self.SPEC)
        assert {str(w) for w in code.codewords} == CYCLIC_74_WORDS

    def test_is_cyclic(self):
        assert cyclic_from_poly(self.SPEC).is_cyclic()

    def test_unit_polynomial_gives_full_space(self):
        code = cyclic_from_poly(CyclicSpec(3, Gf2Poly.one()))
        assert code.k == 3
        assert len(code.codewords) == 8
        assert code.h == BitMatrix(1, 3, (0,))
        assert code.generator() == BitMatrix.identity(3)

    def test_x_plus_one_gives_even_weight_code(self):
        code = cyclic_from_poly(CyclicSpec(7, Gf2Poly.from_string("11")))
        assert code.codewords == parity_check(7).codewords

    def test_non_divisor_rejected(self):
        with pytest.raises(CodeError):
            CyclicSpec(7, Gf2Poly.from_string("111"))  # x^2+x+1 does not divide x^7-1

    def test_divisors_all_cyclic(self):
        cases = [
            (7, "1011"), (7, "1101"), (7, "11"), (7, "10111"), (7, "11101"),
            (9, "11"), (9, "111"), (9, "1001"), (9, "1001001"),
            (15, "11"), (15, "111"), (15, "11001"), (15, "10011"), (15, "11111"),
        ]
        for n, g in cases:
            spec = CyclicSpec(n, Gf2Poly.from_string(g))
            assert cyclic_from_poly(spec).is_cyclic(), (n, g)


class TestParityPoly:
    def test_worked(self):
        assert str(parity_poly(CyclicSpec(7, Gf2Poly.from_string("1011")))) == "10111"

    def test_degree_n_rejected(self):
        with pytest.raises(CodeError):
            CyclicSpec(7, Gf2Poly.x_pow_plus_one(7))

    def test_x_plus_one_case(self):
        # Long-division oracle: (x^7 - 1)/(x + 1) = x^6 + ... + 1.
        assert str(parity_poly(CyclicSpec(7, Gf2Poly.from_string("11")))) == "1111111"


class TestParityMatrixFromH:
    def test_worked_staircase(self):
        h = Gf2Poly.from_string("10111")
        assert parity_matrix_from_h(7, h) == BM(["0011101", "0111010", "1110100"])

    def test_annihilates_the_cyclic_code(self):
        spec = CyclicSpec(7, Gf2Poly.from_string("1011"))
        matrix = parity_matrix_from_h(7, parity_poly(spec))
        for w in cyclic_from_poly(spec).codewords:
            assert mat_vec(matrix, w).bits == 0

    def test_same_code_from_either_matrix(self):
        for n, g in [(7, "1011"), (9, "1001"), (15, "10011")]:
            spec = CyclicSpec(n, Gf2Poly.from_string(g))
            code = cyclic_from_poly(spec)
            from gridfec.linear import LinearCode
            via_h = LinearCode.from_parity(parity_matrix_from_h(n, parity_poly(spec)))
            assert via_h.codewords == code.codewords

    def test_degree_out_of_range(self):
        with pytest.raises(CodeError):
            parity_matrix_from_h(4, Gf2Poly.from_string("10001"))  # deg 4 == n
