"""End-to-end acceptance suite.

One test per criterion; the terminal summary prints a PASS/FAIL line for
each.  All golden values are exact; the two Monte-Carlo checks fix their
seeds and assert their stated tolerances and time budgets.

Known discrepancy: criterion 5's combined-minimum-distance check pins the
published value 7 for the three-component composition, but the componentwise
minimum distances derived from its own parity-check blocks sum to 6 (each
block contains a pair of equal columns, so each component has a weight-2
codeword that the blocks' own codeword listings include).  The pinned
assertion is kept and fails; see test_criterion_5_super_min_distance.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from gridfec.approx import Basis, pseudo_best_approx, pseudo_inner
from gridfec.channel import ChannelConfig, run_trial
from gridfec.families import CyclicSpec, cyclic_from_poly, hamming, parity_matrix_from_h, parity_poly
from gridfec.gf2 import BitMatrix, BitVector, Gf2Poly, mat_mul, mat_vec, transpose
from gridfec.grid import GridCode, GridCodeword, grid_dot
from gridfec.linear import LinearCode
from gridfec.super_codes import (
    SuperCodeword,
    SuperColumnCode,
    SuperRowCode,
    col_family,
)

BV = BitVector.from_string
BM = BitMatrix.from_strings


def test_criterion_1_encoding_golden_set():
    h = BM(["0101000", "1010100", "0010010", "0010001"])
    g = BM(["1000100", "0101000", "0010111"])
    code = LinearCode(h, g)
    expected = {
        "000": "0000000", "100": "1000100", "010": "0101000", "001": "0010111",
        "110": "1101100", "101": "1010011", "011": "0111111", "111": "1111011",
    }
    for message, word in expected.items():
        assert str(code.encode(BV(message))) == word
    assert {str(w) for w in code.codewords} == set(expected.values())
    assert mat_mul(g, transpose(h)).is_zero()


def test_criterion_2_coset_decoding():
    code = LinearCode.from_parity(BM(["10110", "11001"]))
    word, err = code.decode(BV("11110"))
    assert str(word) == "11010"
    assert str(err) == "00100"


def test_criterion_3_cyclic_machinery():
    spec = CyclicSpec(7, Gf2Poly.from_string("1011"))
    code = cyclic_from_poly(spec)
    expected = {
        "0000000", "1011000", "0101100", "0010110", "0001011", "1110100",
        "1001110", "1010011", "0111010", "0100111", "0011101", "1100010",
        "1111111", "1000101", "0110001", "1101001",
    }
    assert {str(w) for w in code.codewords} == expected
    h_poly = parity_poly(spec)
    assert str(h_poly) == "10111"  # x^4 + x^3 + x^2 + 1
    matrix = parity_matrix_from_h(7, h_poly)
    assert all(mat_vec(matrix, w).bits == 0 for w in code.codewords)
    assert code.is_cyclic()


def test_criterion_4_pseudo_best_approximation():
    basis8 = Basis((BV("01001001"), BV("11000010"), BV("11100101"), BV("11111000")))
    assert pseudo_best_approx(BV("11111111"), basis8) == BV("10010110")
    basis4 = Basis((BV("0101"), BV("1011")))
    assert pseudo_best_approx(BV("1111"), basis4) == BV("1011")
    assert pseudo_inner(BV("1011"), BV("1111")) == 1
    assert pseudo_inner(BV("1111"), BV("1111")) == 0


def test_criterion_5_super_row_codes():
    rc318 = SuperRowCode([LinearCode.from_parity(BM(["1010", "1101"])),
                          LinearCode.from_parity(BM(["10110", "01101"]))])
    word, err = rc318.decode(SuperCodeword.of("1111", "11111"))
    assert str(word) == "1011|11011"
    assert str(err) == "0100|00100"
    assert rc318.cardinality() == 32

    rc311 = SuperRowCode([
        LinearCode.from_parity(BM(["011100", "101010", "110001"])),
        LinearCode.from_parity(BM(["0001100", "0110010", "1101001"])),
        LinearCode.from_parity(BM(["11000100", "00110010", "10101001"])),
    ])
    assert rc311.cardinality() == 8 * 16 * 32
    assert rc311.transmission_rate() == Fraction(12, 21)

    h4 = BM(["1001000", "0110100", "1010010", "1110001"])
    from gridfec.families import parity_check, repetition
    cc3210 = SuperColumnCode([parity_check(7), repetition(7), hamming(3),
                              LinearCode.from_parity(h4)])
    assert cc3210.transmission_rate() == Fraction(1, 2)


def test_criterion_5_super_min_distance():
    """Pinned combined minimum distance for the three-component composition.

    The pinned value is 7; the componentwise minimum distances recomputed
    from the printed parity-check blocks are 2 + 2 + 2 = 6, because every
    block has two equal columns (block 1: columns 4 and 6; block 2: columns
    4 and 8; block 3: columns 2 and 5), each of which yields a weight-2
    codeword that also appears in the corresponding printed codeword list.
    The assertion keeps the pinned value and is expected to fail.
    """
    rc312 = SuperRowCode([
        LinearCode.from_parity(BM(["01101000", "10010100", "11100010", "10000001"])),
        LinearCode.from_parity(BM(["11001000", "11100100", "01100010", "01010001"])),
        LinearCode.from_parity(BM(["01111000", "00100100", "00110010", "10100001"])),
    ])
    recomputed = rc312.min_distance()
    assert recomputed == 7, (
        f"pinned combined minimum distance 7, but the parity-check blocks "
        f"give {recomputed} (componentwise "
        f"{[c.min_distance() for c in rc312.components]}); known discrepancy, "
        f"kept deliberately - see this test's docstring")


def test_criterion_6_super_column_codes():
    cc322 = SuperColumnCode([
        LinearCode.from_parity(BM(["0011000", "0100100", "1110010", "1000001"])),
        LinearCode.from_parity(BM(["1100010", "1101001"])),
        LinearCode.from_parity(BM(["1010100", "0110010", "1111001"])),
    ])
    assert cc322.cardinality() == 2 ** 12

    cc325 = col_family("repetition", (6, 3))
    produced = set()
    for m in range(8):
        msgs = [BitVector(1, (m >> i) & 1) for i in range(3)]
        produced.add(str(cc325.encode(msgs)))
    expected = {"|".join(seg) for seg in
                [(a, b, c) for a in ("000000", "111111")
                 for b in ("000000", "111111")
                 for c in ("000000", "111111")]}
    assert produced == expected
    assert cc325.cardinality() == 8

    cc3211 = SuperColumnCode([
        LinearCode.from_parity(BM(["001001", "010010", "100100"])),
        LinearCode.from_parity(BM(["110000", "101000", "100100", "100010", "100001"])),
        LinearCode.from_parity(BM(["000011", "000110", "001100", "011000", "110000"])),
    ])
    assert cc3211.cardinality() == 32
    assert {str(w) for w in cc3211.components[1].codewords} == {"000000", "111111"}
    assert {str(w) for w in cc3211.components[2].codewords} == {"000000", "111111"}


def test_criterion_7_grid_codes():
    grid = GridCode([
        [LinearCode.from_parity(BM(["001100", "011010", "111001"])),
         LinearCode.from_parity(BM(["1001100", "0101010", "1110001"]))],
        [LinearCode.from_parity(BM(["101000", "110100", "010010", "100001"])),
         LinearCode.from_parity(BM(["1111000", "0110100", "1010010", "1100001"]))],
        [LinearCode.from_parity(BM(["100100", "110010", "101001"])),
         LinearCode.from_parity(BM(["1101100", "0110010", "1111001"]))],
    ])
    row_stream = ["100001|0100101", "111011|1010101", "111100|1111100"]
    col_stream = ["100001|111011|111100", "0100101|1010101|1111100"]
    word = grid.from_row_stream(row_stream)
    assert word.to_row_stream() == row_stream
    assert word.to_col_stream() == col_stream
    assert grid.from_col_stream(col_stream) == word

    x = GridCodeword.parse_rows(
        [["110", "111101"], ["111", "011101"], ["001", "100010"], ["010", "011001"]])
    y = GridCodeword.parse_rows(
        [["010", "110001"], ["101", "100011"], ["011", "101010"], ["110", "010101"]])
    assert grid_dot(x, y) == ((1, 1), (0, 1), (1, 0), (1, 0))

    c42 = LinearCode.from_parity(BM(["1010", "1101"]))
    ortho = GridCode.uniform(c42, 2, 2).orthogonal()
    for row in ortho.cells:
        for cell in row:
            assert {str(w) for w in cell.codewords} == {"0000", "1101", "0111", "1010"}
    for a in c42.codewords:
        for b in ortho.cells[0][0].codewords:
            xa = GridCodeword.from_rows([[a, a], [a, a]])
            yb = GridCodeword.from_rows([[b, b], [b, b]])
            assert grid_dot(xa, yb) == ((0, 0), (0, 0))


def test_criterion_8_property_suites():
    start = time.monotonic()
    rng = random.Random(0xC0DE)
    for trial in range(200):
        code = _random_code(rng)

        # Coset decoding corrects every pattern up to the error capability,
        # exhaustively over codewords and patterns.
        t = code.error_capability()
        for w in code.codewords:
            for weight_ in range(1, t + 1):
                for support in combinations(range(code.n), weight_):
                    decoded, _ = code.decode(w.with_flipped(support))
                    assert decoded == w

        # Dual dimension and double-dual identity.
        dual = code.dual()
        assert dual.k == code.n - code.k
        assert dual.dual().codewords == code.codewords

        # Super membership is exactly componentwise membership.
        rc = SuperRowCode([code, code])
        segs = (BitVector(code.n, rng.getrandbits(code.n)),
                BitVector(code.n, rng.getrandbits(code.n)))
        word = SuperCodeword(segs)
        assert rc.is_member(word) == all(code.is_member(s) for s in segs)

        # Stream round trips on a grid of this code.
        grid = GridCode.uniform(code, 2, 2)
        cells = [[BitVector(code.n, rng.getrandbits(code.n)) for _ in range(2)]
                 for _ in range(2)]
        gw = GridCodeword.from_rows(cells)
        assert grid.from_row_stream(gw.to_row_stream()) == gw
        assert grid.from_col_stream(gw.to_col_stream()) == gw

    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"property suite took {elapsed:.1f}s"


def test_criterion_9_monte_carlo():
    start = time.monotonic()

    code = hamming(3)
    grid = GridCode.uniform(code, 1, 1)
    sent = GridCodeword.from_rows([[code.encode(BV("1010"))]])
    report = run_trial(grid, sent, "per_cell_decode",
                       ChannelConfig(0.01, seed=20260810), 100_000)
    analytic = 1 - 0.99 ** 7 - 7 * 0.01 * 0.99 ** 6
    failure_rate = report.failures / report.trials
    assert abs(failure_rate - analytic) / analytic <= 0.20

    block = LinearCode.from_parity(
        BM(["01101000", "10010100", "11100010", "10000001"]))
    cell = block.encode(BV("1011"))
    big = GridCode.uniform(block, 16, 17)
    sent_big = GridCodeword.from_rows([[cell] * 17 for _ in range(16)])
    vote_report = run_trial(big, sent_big, "majority_vote",
                            ChannelConfig(0.05, seed=9), 1_000)
    assert vote_report.decode_success / vote_report.trials >= 0.99

    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"Monte-Carlo suite took {elapsed:.1f}s"


def _random_code(rng: random.Random) -> LinearCode:
    while True:
        n = rng.randint(2, 10)
        m = rng.randint(1, n - 1)
        words = tuple(rng.getrandbits(n) for _ in range(m))
        if not any(words):
            continue
        code = LinearCode.from_parity(BitMatrix(m, n, words))
        if 1 <= code.k < code.n:
            return code
