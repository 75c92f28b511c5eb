import random

import pytest

from gridfec.approx import (
    ApproxDecodeError,
    Basis,
    approx_decode,
    pseudo_best_approx,
    pseudo_inner,
)
from gridfec.gf2 import BitMatrix, BitVector, Gf2Error
from gridfec.linear import CodeError, LinearCode

BV = BitVector.from_string


class TestPseudoInner:
    def test_worked_values(self):
        assert pseudo_inner(BV("1011"), BV("1111")) == 1
        assert pseudo_inner(BV("1111"), BV("1111")) == 0

    def test_zero_vector(self):
        assert pseudo_inner(BV("1011"), BV("0000")) == 0

    def test_length_mismatch(self):
        with pytest.raises(Gf2Error):
            pseudo_inner(BV("101"), BV("1010"))

    def test_symmetric_and_biadditive(self):
        rng = random.Random(2)
        for _ in range(200):
            x = BitVector(6, rng.getrandbits(6))
            y = BitVector(6, rng.getrandbits(6))
            z = BitVector(6, rng.getrandbits(6))
            assert pseudo_inner(x, y) == pseudo_inner(y, x)
            assert pseudo_inner(x ^ y, z) == pseudo_inner(x, z) ^ pseudo_inner(y, z)
            assert pseudo_inner(x, y ^ z) == pseudo_inner(x, y) ^ pseudo_inner(x, z)


class TestPseudoBestApprox:
    EIGHT_BASIS = Basis((BV("01001001"), BV("11000010"), BV("11100101"), BV("11111000")))

    def test_worked_eight_bit_example(self):
        assert pseudo_best_approx(BV("11111111"), self.EIGHT_BASIS) == BV("10010110")

    def test_worked_four_bit_example(self):
        basis = Basis((BV("0101"), BV("1011")))
        assert pseudo_best_approx(BV("1111"), basis) == BV("1011")

    def test_standard_basis_reproduces_beta(self):
        basis = Basis(tuple(BitVector(4, 1 << i) for i in range(4)))
        beta = BV("1101")
        assert pseudo_best_approx(beta, basis) == beta

    def test_vanishing_signalled(self):
        # <beta, alpha> = 0 for the only basis vector, so the sum vanishes.
        basis = Basis((BV("1100"),))
        assert pseudo_best_approx(BV("0011"), basis) is None

    def test_result_in_span(self):
        rng = random.Random(8)
        vecs = (BV("01001001"), BV("11000010"), BV("11100101"), BV("11111000"))
        span = {BitVector.zeros(8)}
        for v in vecs:
            span |= {w ^ v for w in span}
        basis = Basis(vecs)
        for _ in range(100):
            beta = BitVector(8, rng.getrandbits(8))
            result = pseudo_best_approx(beta, basis)
            if result is not None:
                assert result in span

    def test_dependent_basis_rejected(self):
        with pytest.raises(Gf2Error, match="^basis vectors are linearly dependent$"):
            Basis((BV("1010"), BV("0101"), BV("1111")))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(Gf2Error):
            Basis((BV("1010"), BV("011")))

    def test_length_mismatch(self):
        with pytest.raises(Gf2Error):
            pseudo_best_approx(BV("101"), self.EIGHT_BASIS)

    def test_basis_dependence_is_real(self):
        # Two bases of one subspace can project the same beta differently.
        span_vecs = (BV("1100"), BV("0011"))
        b1 = Basis(span_vecs)
        b2 = Basis((BV("1111"), BV("0011")))
        beta = BV("1000")
        r1 = pseudo_best_approx(beta, b1)
        r2 = pseudo_best_approx(beta, b2)
        assert r1 is not None and r2 is not None
        assert r1 != r2


class TestApproxDecode:
    CODE = LinearCode.from_parity(BitMatrix.from_strings(["1010", "1101"]))

    def test_worked_example(self):
        assert approx_decode(self.CODE, BV("1111")) == BV("1011")

    def test_codeword_passes_through(self):
        for w in self.CODE.codewords:
            assert approx_decode(self.CODE, w) == w

    def test_output_is_always_a_codeword(self):
        rng = random.Random(3)
        codes = [
            self.CODE,
            LinearCode.from_parity(BitMatrix.from_strings(["10110", "11001"])),
            LinearCode.from_parity(BitMatrix.from_strings(
                ["0101000", "1010100", "0010010", "0010001"])),
        ]
        for code in codes:
            for _ in range(60):
                y = BitVector(code.n, rng.getrandbits(code.n))
                try:
                    result = approx_decode(code, y)
                except ApproxDecodeError:
                    continue
                assert code.syndrome(result).bits == 0

    def test_single_row_generator_has_no_retry(self):
        # 1100 is orthogonal to the only row of G, 1111, so its projection
        # vanishes and, as for every basis of the code, no retry is made.
        code = LinearCode.from_parity(BitMatrix.from_strings(["1100", "1010", "1001"]))
        with pytest.raises(ApproxDecodeError, match="vanishing projection onto G"):
            approx_decode(code, BV("1100"))

    def test_retry_schedule_is_deterministic(self):
        rng = random.Random(12)
        for _ in range(50):
            y = BitVector(4, rng.getrandbits(4))
            try:
                first = approx_decode(self.CODE, y)
            except ApproxDecodeError:
                continue
            assert approx_decode(self.CODE, y) == first


class TestApproxDecodePins:
    """approx_decode is G's projection; it fails exactly on non-codewords orthogonal to C."""

    @staticmethod
    def random_code(rng: random.Random) -> LinearCode:
        """A code given by random independent generator rows, 1 <= k < n <= 10."""
        while True:
            n = rng.randint(2, 10)
            k = rng.randint(1, n - 1)
            g = BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
            try:
                return LinearCode.from_generator(g)
            except CodeError:
                continue

    def test_result_is_the_generator_projection(self):
        rng = random.Random(1107)
        raised = projected = 0
        for _ in range(300):
            code = self.random_code(rng)
            g = code.generator()
            rows = [g.row(i) for i in range(g.rows)]
            for _ in range(8):
                y = BitVector(code.n, rng.getrandbits(code.n))
                projection = BitVector.zeros(code.n)
                for alpha in rows:
                    if pseudo_inner(y, alpha):
                        projection ^= alpha
                if code.is_member(y):
                    assert approx_decode(code, y) == y
                elif projection.bits == 0:
                    # y is orthogonal to every row of G, hence to all of C.
                    assert all(pseudo_inner(y, w) == 0 for w in code.codewords)
                    with pytest.raises(ApproxDecodeError):
                        approx_decode(code, y)
                    raised += 1
                else:
                    assert approx_decode(code, y) == projection
                    projected += 1
        assert raised and projected
