import random

import pytest

from gridfec.families import hamming, parity_check, repetition
from gridfec.gf2 import BitMatrix, BitVector
from gridfec.grid import (
    CellMask,
    GridCode,
    GridCodeword,
    GridError,
    TrueChart,
    apply_chart,
    apply_mask,
    block_layout,
    grid_dot,
    load_stencil,
    mask_from_ap,
)
from gridfec.linear import LinearCode

BV = BitVector.from_string
BM = BitMatrix.from_strings


def grid_331() -> GridCode:
    """3x2 grid with column lengths (6, 7) and row check counts (3, 4, 3)."""
    blocks = {
        (0, 0): BM(["001100", "011010", "111001"]),
        (0, 1): BM(["1001100", "0101010", "1110001"]),
        (1, 0): BM(["101000", "110100", "010010", "100001"]),
        (1, 1): BM(["1111000", "0110100", "1010010", "1100001"]),
        (2, 0): BM(["100100", "110010", "101001"]),
        (2, 1): BM(["1101100", "0110010", "1111001"]),
    }
    return GridCode([[LinearCode.from_parity(blocks[(i, j)]) for j in range(2)]
                     for i in range(3)])


ROW_STREAM_331 = ["100001|0100101", "111011|1010101", "111100|1111100"]
COL_STREAM_331 = ["100001|111011|111100", "0100101|1010101|1111100"]


def cyclic_pair_grid() -> GridCode:
    h_a = BM(["0010111", "0101110", "1011100"])
    h_b = BM(["001001", "010010", "100100"])
    a, b = LinearCode.from_parity(h_a), LinearCode.from_parity(h_b)
    return GridCode([[a, b], [a, b]])


class TestGridConstruction:
    def test_worked_three_by_two(self):
        g = grid_331()
        assert g.column_lengths() == (6, 7)
        assert g.row_check_counts() == (3, 4, 3)

    def test_column_length_violation_named(self):
        with pytest.raises(GridError, match="column 0"):
            GridCode([[repetition(6)], [repetition(7)]])

    def test_row_check_violation_named(self):
        with pytest.raises(GridError, match="row 0"):
            GridCode([[repetition(7), hamming(3)]])

    def test_uniform_always_valid(self):
        g = GridCode.uniform(hamming(3), 4, 5)
        assert g.m == 4 and g.n == 5
        assert g.is_uniform()

    def test_application_scale_uniform(self):
        g = GridCode.uniform(parity_check(8), 16, 17)
        assert (g.m, g.n) == (16, 17)

    def test_one_by_one(self):
        g = GridCode.uniform(hamming(3), 1, 1)
        assert g.cells[0][0] is hamming(3) or g.cells[0][0].h == hamming(3).h

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
    def test_uniform_empty_rejected(self, m, n):
        with pytest.raises(GridError):
            GridCode.uniform(hamming(3), m, n)


class TestEncodeSyndromeDecode:
    def test_member_grid_zero_syndromes(self):
        g = cyclic_pair_grid()
        word = GridCodeword.parse_rows([["1000110", "110110"], ["1111111", "111111"]])
        assert g.is_member(word)
        assert all(s.bits == 0 for row in g.syndrome(word) for s in row)

    def test_one_non_codeword_among_identical_cells(self):
        g = GridCode.uniform(hamming(3), 4, 4)
        cells = [[BV("0100101")] * 4 for _ in range(4)]
        cells[2][3] = BV("0100100")
        assert not g.is_member(GridCodeword.from_rows(cells))
        cells[2][3] = None
        assert g.is_member(GridCodeword.from_rows(cells))

    def test_same_bits_under_two_check_matrices(self):
        # The second code is hamming(3) with its columns reversed: both are
        # (7, 4) codes with three checks, so they share a row.
        ham = hamming(3)
        rev = LinearCode.from_parity(BM(["1111000", "1100110", "1010101"]))
        g = GridCode([[ham, rev]])
        x = BV("0100101")
        assert ham.is_member(x) and not rev.is_member(x)
        assert not g.is_member(GridCodeword.from_rows([[x, x]]))
        assert g.is_member(GridCodeword.from_rows([[x, None]]))

    def test_encode_produces_members(self):
        g = grid_331()
        rng = random.Random(3)
        msgs = [[BitVector(g.cells[i][j].k, rng.getrandbits(g.cells[i][j].k))
                 for j in range(2)] for i in range(3)]
        word = g.encode(msgs)
        assert g.is_member(word)

    def test_single_flip_corrected(self):
        g = GridCode.uniform(hamming(3), 2, 2)
        sent = g.encode([[BV("1010"), BV("0110")], [BV("1111"), BV("0001")]])
        cells = [list(r) for r in sent.cells]
        cells[1][0] = cells[1][0].with_flipped([4])
        decoded, errors = g.decode(GridCodeword.from_rows(cells))
        assert decoded == sent
        weights = [e.weight() for row in errors.cells for e in row]
        assert sum(weights) == 1

    def test_shape_mismatch(self):
        g = grid_331()
        with pytest.raises(GridError):
            g.syndrome(GridCodeword.parse_rows([["100001", "0100101"]]))

    def test_absent_cells_skipped(self):
        g = cyclic_pair_grid()
        word = GridCodeword.parse_rows([["1000110", "·"], ["1111111", "111111"]])
        syn = g.syndrome(word)
        assert syn[0][1] is None
        assert g.is_member(word)
        decoded, errors = g.decode(word)
        assert decoded.cells[0][1] is None and errors.cells[0][1] is None


class TestGridCodewordShape:
    @pytest.mark.parametrize("cells", [((BV("1"), BV("1")), (BV("1"),)), (), ((),)],
                             ids=["ragged", "no rows", "empty row"])
    def test_ragged_or_empty_cells_refused(self, cells):
        for build in (GridCodeword, GridCodeword.from_rows):
            with pytest.raises(GridError, match="non-empty and rectangular"):
                build(cells)


class TestStreams:
    def test_worked_row_stream(self):
        word = grid_331().from_row_stream(ROW_STREAM_331)
        assert word.to_row_stream() == ROW_STREAM_331

    def test_worked_col_stream(self):
        word = grid_331().from_row_stream(ROW_STREAM_331)
        assert word.to_col_stream() == COL_STREAM_331
        assert grid_331().from_col_stream(COL_STREAM_331) == word

    def test_roundtrip_random_grids(self):
        rng = random.Random(5)
        for _ in range(20):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            lengths = [rng.randint(2, 8) for _ in range(n)]
            g = GridCode([[parity_check(lengths[j]) for j in range(n)] for _ in range(m)])
            word = GridCodeword.from_rows(
                [[BitVector(lengths[j], rng.getrandbits(lengths[j])) for j in range(n)]
                 for _ in range(m)])
            assert g.from_row_stream(word.to_row_stream()) == word
            assert g.from_col_stream(word.to_col_stream()) == word

    def test_one_by_one_stream_is_plain_word(self):
        g = GridCode.uniform(hamming(3), 1, 1)
        word = g.from_row_stream(["0100101"])
        assert word.to_row_stream() == ["0100101"]
        assert word.to_col_stream() == ["0100101"]

    def test_transpose_duality(self):
        g = grid_331()
        word = g.from_row_stream(ROW_STREAM_331)
        flipped = GridCodeword.from_rows(
            [[word.cells[i][j] for i in range(3)] for j in range(2)])
        assert flipped.to_row_stream() == word.to_col_stream()

    def test_malformed_segment_length(self):
        with pytest.raises(GridError):
            grid_331().from_row_stream(["10001|0100101", "111011|1010101", "111100|1111100"])

    def test_absent_token_roundtrip(self):
        g = cyclic_pair_grid()
        stream = ["1000110|·", "1111111|111111"]
        assert g.from_row_stream(stream).to_row_stream() == stream


class TestMajorityVote:
    def test_all_cells_identical(self):
        g = GridCode.uniform(hamming(3), 2, 3)
        word = GridCodeword.from_rows([[BV("0100101")] * 3] * 2)
        assert g.majority_vote(word) == BV("0100101")

    def test_four_of_nine_corrupted(self):
        g = GridCode.uniform(hamming(3), 3, 3)
        sent = BV("0100101")
        cells = [[sent] * 3 for _ in range(3)]
        cells[0][0] = BV("1111111")
        cells[0][1] = BV("0000001")
        cells[1][2] = BV("1010101")
        cells[2][0] = BV("0011100")
        assert g.majority_vote(GridCodeword.from_rows(cells)) == sent

    def test_no_repeats_falls_back_to_decode(self):
        g = GridCode.uniform(hamming(3), 1, 3)
        sent = g.encode([[BV("1010")] * 3])
        base = sent.cells[0][0]
        cells = [[base.with_flipped([0]), base.with_flipped([3]), base.with_flipped([6])]]
        assert g.majority_vote(GridCodeword.from_rows(cells)) == base

    def test_non_uniform_rejected(self):
        g = grid_331()
        with pytest.raises(GridError):
            g.majority_vote(g.from_row_stream(ROW_STREAM_331))

    def test_absent_cells_are_skipped(self):
        g = GridCode.uniform(hamming(3), 2, 3)
        word = GridCodeword.from_rows([[None, None, None],
                                       [BV("0100101"), BV("0100101"), BV("1111111")]])
        assert g.majority_vote(word) == BV("0100101")

    def test_all_absent_rejected(self):
        g = GridCode.uniform(hamming(3), 2, 2)
        with pytest.raises(GridError, match="^every cell is absent; nothing to vote on$"):
            g.majority_vote(GridCodeword.from_rows([[None, None]] * 2))

    def test_tie_goes_to_smaller_syndrome_weight(self):
        # 1111111 is a codeword (syndrome weight 0), 0000001 has syndrome
        # weight 3; the bit-string order alone would pick 0000001.
        g = GridCode.uniform(hamming(3), 2, 2)
        word = GridCodeword.from_rows([[BV("0000001"), BV("1111111")]] * 2)
        assert g.majority_vote(word) == BV("1111111")

    def test_tie_on_syndrome_weight_goes_to_smaller_bit_string(self):
        # Two codewords; 0001111 sorts first as a string although its
        # bits (bit 0 first) make the larger integer.
        g = GridCode.uniform(hamming(3), 2, 2)
        word = GridCodeword.from_rows([[BV("0010110"), BV("0001111")]] * 2)
        assert g.majority_vote(word) == BV("0001111")


class TestBestRowSelect:
    def test_clean_grid_ties_to_first_row(self):
        g = GridCode.uniform(hamming(3), 3, 2)
        sent = BV("0100101")
        word = GridCodeword.from_rows([[sent] * 2] * 3)
        assert g.best_row_select(word) == 0

    def test_fully_consistent_row_wins(self):
        g = GridCode.uniform(hamming(3), 3, 2)
        good, bad = BV("0100101"), BV("1111110")
        word = GridCodeword.from_rows([[bad, good], [bad, bad], [good, good]])
        assert g.best_row_select(word) == 2

    def test_error_weight_option(self):
        g = GridCode.uniform(hamming(3), 2, 1)
        sent = BV("0100101")
        one_flip = sent.with_flipped([0])
        word = GridCodeword.from_rows([[one_flip], [sent]])
        assert g.best_row_select(word, by="error_weight") == 1

    def test_unknown_rule_rejected(self):
        g = GridCode.uniform(hamming(3), 2, 1)
        word = GridCodeword.from_rows([[BV("0100101")], [BV("0100101")]])
        with pytest.raises(GridError):
            g.best_row_select(word, by="bogus")

    def test_absent_cells_score_nothing(self):
        g = GridCode.uniform(hamming(3), 3, 2)
        good = BV("0100101")
        flip = good.with_flipped([0])
        word = GridCodeword.from_rows([[None, flip], [good, good], [flip, None]])
        assert g.best_row_select(word) == 1
        assert g.best_row_select(word, by="error_weight") == 1

    def test_ties_go_to_the_lowest_row(self):
        g = GridCode.uniform(hamming(3), 3, 2)
        good = BV("0100101")
        flip = good.with_flipped([3])
        word = GridCodeword.from_rows([[flip, None], [None, good], [good, None]])
        assert g.best_row_select(word) == 1
        assert g.best_row_select(word, by="error_weight") == 1


class TestReconcile:
    def test_identical_streams(self):
        g = grid_331()
        result = g.simultaneous_reconcile(g.from_row_stream(ROW_STREAM_331),
                                          g.from_col_stream(COL_STREAM_331))
        assert result.word == g.from_row_stream(ROW_STREAM_331)
        assert result.disagreements == ()

    def test_row_copy_valid_wins(self):
        g = GridCode.uniform(hamming(3), 1, 2)
        sent = g.encode([[BV("1010"), BV("0110")]])
        corrupted = [list(r) for r in sent.cells]
        corrupted[0][1] = corrupted[0][1].with_flipped([2])
        result = g.simultaneous_reconcile(sent, GridCodeword.from_rows(corrupted))
        assert result.word == sent
        assert result.disagreements == ((0, 1),)

    def test_both_corrupted_decode_to_same_word(self):
        g = GridCode.uniform(hamming(3), 1, 1)
        sent = g.encode([[BV("1010")]])
        a = sent.cells[0][0].with_flipped([1])
        b = sent.cells[0][0].with_flipped([5])
        result = g.simultaneous_reconcile(GridCodeword.from_rows([[a]]),
                                          GridCodeword.from_rows([[b]]))
        assert result.word == sent

    def test_column_copy_valid_wins(self):
        g = GridCode.uniform(hamming(3), 1, 2)
        sent = g.encode([[BV("1010"), BV("0110")]])
        corrupted = [list(r) for r in sent.cells]
        corrupted[0][0] = corrupted[0][0].with_flipped([4])
        result = g.simultaneous_reconcile(GridCodeword.from_rows(corrupted), sent)
        assert result.word == sent
        assert result.disagreements == ((0, 0),)

    def test_equal_leader_weights_go_to_the_row_copy(self):
        g = GridCode.uniform(hamming(3), 1, 1)
        a = BV("0100101").with_flipped([0])
        b = BV("1111111").with_flipped([3])
        result = g.simultaneous_reconcile(GridCodeword.from_rows([[a]]),
                                          GridCodeword.from_rows([[b]]))
        assert result.word == GridCodeword.from_rows([[BV("0100101")]])

    def test_lighter_leader_wins(self):
        # repetition(5): 11000 decodes to 00000 through a weight-2 leader,
        # 11110 to 11111 through a weight-1 leader.
        g = GridCode.uniform(repetition(5), 1, 1)
        result = g.simultaneous_reconcile(GridCodeword.from_rows([[BV("11000")]]),
                                          GridCodeword.from_rows([[BV("11110")]]))
        assert result.word == GridCodeword.from_rows([[BV("11111")]])

    def test_absent_cell_takes_the_other_copy(self):
        g = GridCode.uniform(hamming(3), 1, 2)
        x, y = BV("0100101"), BV("1111111")
        row_word = GridCodeword.from_rows([[None, y]])
        col_word = GridCodeword.from_rows([[x, None]])
        result = g.simultaneous_reconcile(row_word, col_word)
        assert result.word == GridCodeword.from_rows([[x, y]])
        assert result.disagreements == ((0, 0), (0, 1))
        both_absent = GridCodeword.from_rows([[None, y]])
        assert g.simultaneous_reconcile(both_absent, both_absent).word == both_absent

    def test_wrong_order_rejected(self):
        g = grid_331()
        word = g.from_row_stream(ROW_STREAM_331)
        with pytest.raises(GridError, match="word is 2x3, grid is 3x2"):
            g.simultaneous_reconcile(word, GridCodeword.from_rows(list(zip(*word.cells))))

    def test_wrong_cell_length_rejected(self):
        g = grid_331()
        word = g.from_row_stream(ROW_STREAM_331)
        short = GridCodeword.parse_rows([["10000", "0100101"], ["111011", "1010101"],
                                         ["111100", "1111100"]])
        with pytest.raises(GridError, match=r"cell \(0, 0\) has length 5, expected 6"):
            g.simultaneous_reconcile(short, word)


class TestChart:
    CHART_TEXT = "\n".join([
        "...........",
        "*****....*.",
        ".....*.*..*",
        "......*....",
        "......*****",
        "***....**..",
        ".*.***..*..",
        "*.*...**.**",
    ])

    def _grid_word(self):
        code = parity_check(4)
        g = GridCode.uniform(code, 8, 11)
        rng = random.Random(9)
        cells = [[BitVector(4, rng.getrandbits(3) << 1) for _ in range(11)]
                 for _ in range(8)]
        return g, GridCodeword.from_rows(cells)

    def test_worked_star_table(self):
        chart = TrueChart.from_text(self.CHART_TEXT)
        assert (chart.m, chart.n) == (8, 11)
        assert chart.true_count() == 31
        _, word = self._grid_word()
        selected = apply_chart(word, chart)
        marked = [word.cells[i][j] for i in range(8) for j in range(11)
                  if chart.marks[i][j]]
        assert selected == marked

    def test_all_true_chart_flattens(self):
        _, word = self._grid_word()
        chart = TrueChart.from_text("\n".join(["*" * 11] * 8))
        assert apply_chart(word, chart) == [word.cells[i][j]
                                            for i in range(8) for j in range(11)]

    def test_all_false_chart_empty(self):
        _, word = self._grid_word()
        chart = TrueChart.from_text("\n".join(["." * 11] * 8))
        assert apply_chart(word, chart) == []

    def test_dimension_mismatch(self):
        _, word = self._grid_word()
        with pytest.raises(GridError):
            apply_chart(word, TrueChart.from_text("**\n.."))

    def test_marked_absent_cell_rejected(self):
        word = GridCodeword.from_rows([[BV("0110"), None], [BV("1100"), BV("0000")]])
        assert apply_chart(word, TrueChart.from_text("*.\n**")) == [
            BV("0110"), BV("1100"), BV("0000")]
        with pytest.raises(GridError):
            apply_chart(word, TrueChart.from_text(".*\n.."))

    def test_text_roundtrip(self):
        chart = TrueChart.from_text(self.CHART_TEXT)
        assert TrueChart.from_text(chart.to_text()) == chart

    def test_refusals_line_by_line(self):
        # Each line's width is checked before its characters, and line 1 before line 2.
        for text, message in (("\n \n", "chart text is empty"),
                              ("**\n*.*", "differing widths"),
                              ("*x\n*", "illegal chart character 'x'"),
                              ("**\n*x.", "differing widths")):
            with pytest.raises(GridError, match=message):
                TrueChart.from_text(text)

    @pytest.mark.parametrize("marks", [(), ((),), ((True, True), (False,))],
                             ids=["empty", "empty-row", "ragged"])
    def test_empty_or_ragged_marks_refused(self, marks):
        # Refused at construction, as GridCodeword's cells are, not later by
        # `.n` or by `apply_chart` reading a missing mark as unmarked.
        with pytest.raises(GridError, match="non-empty and rectangular"):
            TrueChart(marks)


class TestMask:
    def _word_7x7(self):
        rng = random.Random(11)
        cells = [[BitVector(3, rng.getrandbits(3)) for _ in range(7)] for _ in range(7)]
        return GridCodeword.from_rows(cells)

    def test_vertical_bar_progression(self):
        assert mask_from_ap(4, 7, 46, 49).indices == (4, 11, 18, 25, 32, 39, 46)

    def test_cross_bar_progression(self):
        assert mask_from_ap(15, 1, 21, 49).indices == tuple(range(15, 22))

    def test_single_cell(self):
        assert mask_from_ap(1, 1, 1, 49).indices == (1,)

    def test_apply_row_major_one_based(self):
        word = self._word_7x7()
        cells = apply_mask(word, mask_from_ap(4, 7, 46, 49))
        expected = [word.cells[(idx - 1) // 7][(idx - 1) % 7]
                    for idx in (4, 11, 18, 25, 32, 39, 46)]
        assert cells == expected

    def test_out_of_range_rejected(self):
        word = self._word_7x7()
        with pytest.raises(GridError):
            apply_mask(word, CellMask((50,)))

    @pytest.mark.parametrize("first", [0, -10**18])
    def test_first_below_one_rejected(self, first):
        # Refused before the progression is built: 10**18 terms would not fit in memory.
        with pytest.raises(GridError, match="1-based"):
            mask_from_ap(first, 1, 5, 49)

    def test_last_beyond_grid_rejected(self):
        # Refused before the progression is built: 10**18 terms would not fit in memory.
        with pytest.raises(GridError, match="cell count 49"):
            mask_from_ap(1, 1, 10**18, 49)

    def test_duplicates_rejected(self):
        with pytest.raises(GridError):
            CellMask((3, 3))

    def test_shipped_stencils(self):
        cross = load_stencil("cross")
        assert set(cross.indices) == set(mask_from_ap(4, 7, 46, 49).indices) | set(
            mask_from_ap(15, 1, 21, 49).indices)
        k = load_stencil("k")
        assert len(k.indices) == 18
        assert max(k.indices) <= 54
        t = load_stencil("t")
        assert set(t.indices) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 25, 35, 45, 55, 65}

    @pytest.mark.parametrize("name", ["nope", "../stencils/t", "__init__"])
    def test_only_shipped_stencil_names(self, name):
        with pytest.raises(GridError, match="unknown stencil"):
            load_stencil(name)


class TestGridDot:
    def test_worked_four_by_two(self):
        x = GridCodeword.parse_rows(
            [["110", "111101"], ["111", "011101"], ["001", "100010"], ["010", "011001"]])
        y = GridCodeword.parse_rows(
            [["010", "110001"], ["101", "100011"], ["011", "101010"], ["110", "010101"]])
        assert grid_dot(x, y) == ((1, 1), (0, 1), (1, 0), (1, 0))

    def test_zero_grid(self):
        x = GridCodeword.parse_rows([["101", "11"], ["010", "00"]])
        zero = GridCodeword.parse_rows([["000", "00"], ["000", "00"]])
        assert grid_dot(x, zero) == ((0, 0), (0, 0))

    def test_bilinear_cellwise(self):
        rng = random.Random(15)
        for _ in range(50):
            def rand():
                return GridCodeword.from_rows(
                    [[BitVector(4, rng.getrandbits(4)), BitVector(5, rng.getrandbits(5))]])
            a, b, c = rand(), rand(), rand()
            ab = GridCodeword.from_rows(
                [[a.cells[0][0] ^ b.cells[0][0], a.cells[0][1] ^ b.cells[0][1]]])
            left = grid_dot(ab, c)
            ra, rb = grid_dot(a, c), grid_dot(b, c)
            assert left == tuple(tuple(x ^ y for x, y in zip(r1, r2))
                                 for r1, r2 in zip(ra, rb))
            assert grid_dot(a, b) == grid_dot(b, a)

    def test_shape_mismatch(self):
        x = GridCodeword.parse_rows([["101"]])
        y = GridCodeword.parse_rows([["101"], ["010"]])
        with pytest.raises(GridError):
            grid_dot(x, y)


class TestOrthogonalGrid:
    def test_worked_two_by_two(self):
        c = LinearCode.from_parity(BM(["1010", "1101"]))
        g = GridCode.uniform(c, 2, 2)
        og = g.orthogonal()
        for row in og.cells:
            for cell in row:
                assert {str(w) for w in cell.codewords} == {"0000", "1101", "0111", "1010"}

    def test_all_member_pairs_dot_to_zero(self):
        c = LinearCode.from_parity(BM(["1010", "1101"]))
        g = GridCode.uniform(c, 2, 2)
        og = g.orthogonal()
        words = sorted(c.codewords, key=lambda w: w.bits)
        duals = sorted(og.cells[0][0].codewords, key=lambda w: w.bits)
        for a in words:
            for b in duals:
                x = GridCodeword.from_rows([[a, a], [a, a]])
                y = GridCodeword.from_rows([[b, b], [b, b]])
                assert grid_dot(x, y) == ((0, 0), (0, 0))

    def test_full_space_grid_duals_to_zero_codes(self):
        full = LinearCode.from_generator(BitMatrix.identity(3))
        og = GridCode.uniform(full, 2, 2).orthogonal()
        assert all(cell.k == 0 for row in og.cells for cell in row)


class TestCyclicGrid:
    def test_worked_cyclic_pair(self):
        assert cyclic_pair_grid().is_cyclic()

    def test_grid_with_non_cyclic_cell(self):
        h = BM(["0101000", "1010100", "0010010", "0010001"])
        c = LinearCode.from_parity(h)
        g = GridCode([[c, c]])
        assert not g.is_cyclic()

    def test_zero_code_grid(self):
        zero = LinearCode.from_parity(BitMatrix.identity(4))
        assert GridCode.uniform(zero, 2, 2).is_cyclic()


class TestBlockLayout:
    def _codes(self, count: int):
        # Distinct (6, 4) codes: equal length, equal check count.
        rng = random.Random(19)
        out = []
        while len(out) < count:
            h = BitMatrix(2, 6, (rng.getrandbits(6), rng.getrandbits(6)))
            code = LinearCode.from_parity(h)
            if code.k == 4:
                out.append(code)
        return out

    def test_worked_ten_by_nine_layout(self):
        c = self._codes(12)
        blocks = [
            ((0, 3), (0, 3), c[0]), ((0, 4), (3, 5), c[1]), ((0, 2), (5, 9), c[2]),
            ((2, 6), (5, 8), c[7]), ((2, 6), (8, 9), c[8]), ((3, 8), (0, 2), c[3]),
            ((3, 9), (2, 3), c[4]), ((4, 6), (3, 5), c[9]), ((6, 9), (3, 7), c[10]),
            ((6, 10), (7, 9), c[11]), ((8, 10), (0, 2), c[5]), ((9, 10), (2, 7), c[6]),
        ]
        g = block_layout(10, 9, blocks)
        assert (g.m, g.n) == (10, 9)
        assert g.cells[0][0] is c[0]
        assert g.cells[9][4] is c[6]
        assert g.cells[5][8] is c[8]

    def test_overlap_rejected(self):
        c = self._codes(2)
        with pytest.raises(GridError, match="overlap"):
            block_layout(2, 2, [((0, 2), (0, 2), c[0]), ((1, 2), (1, 2), c[1])])

    def test_gap_rejected(self):
        c = self._codes(1)
        with pytest.raises(GridError, match="uncovered"):
            block_layout(2, 2, [((0, 2), (0, 1), c[0])])

    def test_single_block_is_uniform(self):
        c = self._codes(1)[0]
        g = block_layout(3, 4, [((0, 3), (0, 4), c)])
        assert g.is_uniform()

    def test_constraint_violation_detected(self):
        with pytest.raises(GridError):
            block_layout(1, 2, [((0, 1), (0, 1), repetition(6)),
                                ((0, 1), (1, 2), hamming(3))])


class TestMaskFromPairs:
    def test_pair_conversion(self):
        mask = CellMask.from_pairs([(0, 3), (1, 3), (2, 3)], n_cols=7)
        assert mask.indices == (4, 11, 18)

    def test_out_of_range_pair(self):
        with pytest.raises(GridError):
            CellMask.from_pairs([(0, 7)], n_cols=7)


class TestVoteMajorityInvariant:
    def test_sent_wins_whenever_majority_intact(self):
        rng = random.Random(33)
        code = hamming(3)
        sent = code.encode(BV("1010"))
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            total = m * n
            corrupt = rng.randint(0, (total - 1) // 2)  # strictly less than half
            g = GridCode.uniform(code, m, n)
            cells = [[sent] * n for _ in range(m)]
            spots = rng.sample(range(total), corrupt)
            for s in spots:
                i, j = divmod(s, n)
                cells[i][j] = BitVector(7, rng.getrandbits(7))
            assert g.majority_vote(GridCodeword.from_rows(cells)) == sent
