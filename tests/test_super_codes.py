import random
from fractions import Fraction

import pytest

from gridfec.families import hamming, parity_check, repetition
from gridfec.gf2 import BitMatrix, BitVector, mat_mul, super_transpose
from gridfec.linear import LinearCode
from gridfec.super_codes import (
    CompositionError,
    GeneratorUndefinedError,
    SuperCodeword,
    SuperColumnCode,
    SuperRowCode,
    col_family,
    row_family,
    super_distance,
    super_weight,
)

BV = BitVector.from_string
BM = BitMatrix.from_strings

# Three-component row composition with 3 check symbols each.
H_311 = [
    BM(["011100", "101010", "110001"]),
    BM(["0001100", "0110010", "1101001"]),
    BM(["11000100", "00110010", "10101001"]),
]
# Two-component (4, 2) + (5, 3) row composition.
H1_318 = BM(["1010", "1101"])
H2_318 = BM(["10110", "01101"])
# Column composition of (7, 3), (7, 5) and (7, 4) codes.
H_322 = [
    BM(["0011000", "0100100", "1110010", "1000001"]),
    BM(["1100010", "1101001"]),
    BM(["1010100", "0110010", "1111001"]),
]


def row_318() -> SuperRowCode:
    return SuperRowCode([LinearCode.from_parity(H1_318), LinearCode.from_parity(H2_318)])


class TestSuperCodeword:
    def test_length_is_the_segment_count(self):
        assert len(SuperCodeword.of("101", "1100", "")) == 3
        assert len(SuperCodeword(())) == 0


class TestRowConstruction:
    def test_three_component_cardinality(self):
        rc = SuperRowCode([LinearCode.from_parity(h) for h in H_311])
        assert rc.cardinality() == 8 * 16 * 32

    def test_check_symbol_mismatch_names_index(self):
        a = LinearCode.from_parity(BM(["0101000", "1010100", "0010010", "0010001"]))
        b = hamming(3)
        with pytest.raises(CompositionError, match=r"cell \(0, 1\)"):
            SuperRowCode([a, b])

    def test_two_component_cardinality(self):
        assert row_318().cardinality() == 32

    def test_empty_rejected(self):
        with pytest.raises(CompositionError):
            SuperRowCode([])


class TestRowEncodeDecode:
    def test_worked_encode(self):
        word = row_318().encode([BV("10"), BV("110")])
        assert str(word) == "1011|11011"

    def test_zero_messages(self):
        word = row_318().encode([BV("00"), BV("000")])
        assert str(word) == "0000|00000"

    def test_encoded_words_have_zero_syndrome(self):
        rc = row_318()
        for m1 in range(4):
            for m2 in range(8):
                word = rc.encode([BitVector(2, m1), BitVector(3, m2)])
                assert rc.is_member(word)

    def test_worked_decode(self):
        word, err = row_318().decode(SuperCodeword.of("1111", "11111"))
        assert str(word) == "1011|11011"
        assert str(err) == "0100|00100"

    def test_member_decodes_clean(self):
        rc = row_318()
        word = rc.encode([BV("11"), BV("101")])
        decoded, err = rc.decode(word)
        assert decoded == word
        assert super_weight(err) == 0

    def test_hamming_row_corrects_one_error_per_segment(self):
        rc = row_family("hamming", [3, 3])
        sent = rc.encode([BV("1010"), BV("0111")])
        received = SuperCodeword((sent.segments[0].with_flipped([2]),
                                  sent.segments[1].with_flipped([6])))
        decoded, err = rc.decode(received)
        assert decoded == sent
        assert super_weight(err) == 2


class TestRowSyndrome:
    def test_member_syndromes_zero(self):
        rc = SuperRowCode([LinearCode.from_parity(h) for h in H_311])
        zero = SuperCodeword.of("000000", "0000000", "00000000")
        assert all(s.bits == 0 for s in rc.syndrome(zero))

    def test_verified_member_segment(self):
        # Block and word recovered from a worked syndrome example.
        h1 = BM(["10001000", "10010100", "01100001"])
        assert LinearCode.from_parity(h1).syndrome(BV("10001100")).bits == 0

    def test_nonzero_syndrome_flags_nonmember(self):
        rc = row_318()
        syn = rc.syndrome(SuperCodeword.of("1111", "11111"))
        assert [str(s) for s in syn] == ["01", "11"]
        assert not rc.is_member(SuperCodeword.of("1111", "11111"))

    def test_shape_mismatch(self):
        with pytest.raises(CompositionError):
            row_318().syndrome(SuperCodeword.of("11110", "1111"))


class TestSuperDistance:
    def test_printed_error_vector_weight(self):
        # Popcount of the printed four-segment error vector; the worked
        # prose totals it as 13 but the printed segments sum to 12.
        e = SuperCodeword.of("0111100", "00001100", "001111", "000110000")
        assert super_weight(e) == 12
        x = SuperCodeword.of("1101010", "11110000", "111010", "111100100")
        y = SuperCodeword.of("1010110", "11111100", "110101", "111010100")
        assert super_distance(x, y) == super_weight(e)
        assert x ^ e == y

    def test_distance_to_self(self):
        x = SuperCodeword.of("101", "1100")
        assert super_distance(x, x) == 0

    def test_shape_mismatch(self):
        with pytest.raises(CompositionError, match="shape mismatch"):
            super_distance(SuperCodeword.of("101", "1100"), SuperCodeword.of("101", "110"))

    def test_componentwise_decomposition(self):
        rng = random.Random(13)
        for _ in range(50):
            a = SuperCodeword((BitVector(5, rng.getrandbits(5)),
                               BitVector(7, rng.getrandbits(7))))
            b = SuperCodeword((BitVector(5, rng.getrandbits(5)),
                               BitVector(7, rng.getrandbits(7))))
            per_segment = sum((x.bits ^ y.bits).bit_count()
                              for x, y in zip(a.segments, b.segments))
            assert super_distance(a, b) == per_segment

    def test_metric_properties(self):
        rng = random.Random(14)
        for _ in range(50):
            vecs = [SuperCodeword((BitVector(4, rng.getrandbits(4)),
                                   BitVector(6, rng.getrandbits(6))))
                    for _ in range(3)]
            x, y, z = vecs
            assert super_distance(x, y) == super_distance(y, x)
            assert (super_distance(x, y) == 0) == (x == y)
            assert super_distance(x, z) <= super_distance(x, y) + super_distance(y, z)


class TestSuperMinDistance:
    def test_three_component_sum(self):
        # Componentwise minima of the printed H blocks: 2 + 2 + 2.
        h_blocks = [
            BM(["01101000", "10010100", "11100010", "10000001"]),
            BM(["11001000", "11100100", "01100010", "01010001"]),
            BM(["01111000", "00100100", "00110010", "10100001"]),
        ]
        rc = SuperRowCode([LinearCode.from_parity(h) for h in h_blocks])
        assert [c.min_distance() for c in rc.components] == [2, 2, 2]
        assert rc.min_distance() == 6

    def test_single_component(self):
        rc = SuperRowCode([hamming(3)])
        assert rc.min_distance() == hamming(3).min_distance()

    def test_two_component_brute_force(self):
        rc = row_318()
        assert rc.min_distance() == 4  # 2 + 2 by enumeration
        # Oracle: minimum super distance over pairs differing in every slot.
        words1 = sorted(rc.components[0].codewords, key=lambda w: w.bits)
        words2 = sorted(rc.components[1].codewords, key=lambda w: w.bits)
        best = None
        for a1 in words1:
            for a2 in words2:
                for b1 in words1:
                    for b2 in words2:
                        if a1 == b1 or a2 == b2:
                            continue
                        d = (a1.bits ^ b1.bits).bit_count() + (a2.bits ^ b2.bits).bit_count()
                        best = d if best is None else min(best, d)
        assert rc.min_distance() == best


class TestRowDual:
    def test_worked_four_two_pair(self):
        c = LinearCode.from_parity(BM(["1010", "1101"]))
        dual = SuperRowCode([c, c]).dual()
        for comp in dual.components:
            assert {str(w) for w in comp.codewords} == {"0000", "1101", "0111", "1010"}

    def test_n_not_twice_k_rejected(self):
        with pytest.raises(CompositionError):
            SuperRowCode([hamming(3), hamming(3)]).dual()

    def test_mixed_lengths_rejected_by_the_first_bad_component(self):
        # (7, 4) and (6, 3) share m = 3; the n = 2k rule alone refuses them.
        six_three = LinearCode.from_parity(BM(["110100", "011010", "101001"]))
        assert (six_three.n, six_three.k) == (6, 3)
        with pytest.raises(CompositionError, match=r"^component 0 has n=7 != 2k=8$"):
            SuperRowCode([hamming(3), six_three]).dual()

    def test_member_pairs_orthogonal_per_segment(self):
        c = LinearCode.from_parity(BM(["1010", "1101"]))
        rc = SuperRowCode([c, c])
        dual = rc.dual()
        for u in rc.components[0].codewords:
            for v in dual.components[0].codewords:
                assert (u.bits & v.bits).bit_count() % 2 == 0


class TestRowGenerator:
    def test_two_equal_k_components(self):
        g1 = BM(["1101000", "0110100", "0011010", "0001101"])
        g2 = BM(["1000101", "0100111", "0010110", "0001011"])
        rc = SuperRowCode([LinearCode.from_generator(g1), LinearCode.from_generator(g2)])
        gs = rc.generator()
        assert gs.body.rows == 4
        assert gs.body.cols == 14
        assert gs.col_cuts == (7,)
        left = BitMatrix(4, 7, tuple(w & 0x7F for w in gs.body.row_words))
        right = BitMatrix(4, 7, tuple(w >> 7 for w in gs.body.row_words))
        assert left == g1 and right == g2

    def test_generated_sets_match_span(self):
        g1 = BM(["1101000", "0110100", "0011010", "0001101"])
        c1 = LinearCode.from_generator(g1)
        printed = {
            "0000000", "1101000", "0110100", "0011010", "0001101", "1011100",
            "0101110", "0010111", "1110010", "1100101", "0111001", "1000110",
            "0100011", "1010001", "1001011",
        }
        words = {str(w) for w in c1.codewords}
        assert printed <= words
        assert len(words) == 16

    def test_unequal_k_is_undefined(self):
        h1 = BM(["1011000", "1110100", "0100010", "1000001"])
        h2 = BM(["11001000", "00110100", "10010010", "11110001"])
        h3 = BM(["101000", "010100", "110010", "100001"])
        rc = SuperRowCode([LinearCode.from_parity(h) for h in (h1, h2, h3)])
        assert [c.k for c in rc.components] == [3, 4, 2]
        with pytest.raises(GeneratorUndefinedError, match="message-symbol"):
            rc.generator()

    def test_single_component(self):
        rc = SuperRowCode([LinearCode.from_generator(BM(["1011", "0101"]))])
        assert rc.generator().body == BM(["1011", "0101"])

    def test_uniform_width_pairing(self):
        # Equal k and equal n: both G_s and H_s exist with uniform block widths.
        comps = [LinearCode.from_parity(BM(["0101000", "1010100", "0010010", "0010001"]))
                 for _ in range(4)]
        rc = SuperRowCode(comps)
        gs = rc.generator()
        hs = rc.parity_matrix()
        widths_g = {b - a for a, b in gs.block_col_spans()}
        widths_h = {b - a for a, b in hs.block_col_spans()}
        assert widths_g == widths_h == {7}
        product = mat_mul(gs.body, super_transpose(hs).body)
        assert product.is_zero()

    def test_parity_matrix_standardizes_redundant_component(self):
        # The first H has a third, dependent row, so it is standardized to
        # its two check rows before the blocks are joined; the second H
        # already has two rows and is used as given.
        rc = SuperRowCode([LinearCode.from_parity(BM(["0111", "1101", "1010"])),
                           LinearCode.from_parity(H2_318)])
        hs = rc.parity_matrix()
        assert hs.body == BM(["101010110", "110101101"])
        assert hs.col_cuts == (4,)
        assert hs.row_cuts == ()

    def test_mixed_shapes_cannot_form_row_code(self):
        # Generators with equal k but check counts 3, 4 and 2 compose into
        # no valid row code at all.
        ga = BM(["100011", "010101", "001110"])
        gb = BM(["1001111", "0100011", "0011001"])
        gc = BM(["10011", "01010", "00111"])
        codes = [LinearCode.from_generator(g) for g in (ga, gb, gc)]
        assert sorted({c.n - c.k for c in codes}) == [2, 3, 4]
        with pytest.raises(CompositionError):
            SuperRowCode(codes)


class TestRowFamilies:
    def test_repetition_cardinality(self):
        rc = row_family("repetition", (6, 4))
        assert rc.cardinality() == 16
        assert all(c.h == repetition(6).h for c in rc.components)

    def test_repetition_word_set(self):
        rc = row_family("repetition", (6, 4))
        produced = set()
        for m in range(16):
            msgs = [BitVector(1, (m >> i) & 1) for i in range(4)]
            produced.add(str(rc.encode(msgs)))
        expected = {"|".join("111111" if (m >> i) & 1 else "000000" for i in range(4))
                    for m in range(16)}
        assert produced == expected

    def test_parity_lengths(self):
        assert row_family("parity", [4, 3]).cardinality() == 32
        assert row_family("parity", [4, 4]).cardinality() == 64

    def test_hamming_triple(self):
        rc = row_family("hamming", [3, 3, 3])
        assert all((c.n, c.k) == (7, 4) for c in rc.components)
        assert rc.check_count == 3

    def test_hamming_mixed_m_rejected(self):
        with pytest.raises(CompositionError):
            row_family("hamming", [3, 4])

    def test_cyclic_equal_degree(self):
        rc = row_family("cyclic", [(7, _poly("1011")), (7, _poly("1101")), (6, _poly("1001"))])
        assert all(c.is_cyclic() for c in rc.components)
        assert rc.check_count == 3

    def test_cyclic_unequal_degree_rejected(self):
        with pytest.raises(CompositionError):
            row_family("cyclic", [(7, _poly("1011")), (7, _poly("11"))])

    def test_unknown_kind_rejected(self):
        with pytest.raises(CompositionError, match="^unknown row family kind 'golay'$"):
            row_family("golay", [3, 3])


class TestColumnConstruction:
    def test_worked_cardinality(self):
        cc = SuperColumnCode([LinearCode.from_parity(h) for h in H_322])
        assert [c.k for c in cc.components] == [3, 5, 4]
        assert cc.cardinality() == 2 ** 12

    def test_mixed_lengths_rejected(self):
        with pytest.raises(CompositionError, match=r"cell \(1, 0\)"):
            SuperColumnCode([repetition(6), repetition(7)])

    def test_cyclic_column_words(self):
        h1 = BM(["001001", "010010", "100100"])
        h2 = BM(["110000", "101000", "100100", "100010", "100001"])
        h3 = BM(["000011", "000110", "001100", "011000", "110000"])
        cc = SuperColumnCode([LinearCode.from_parity(h) for h in (h1, h2, h3)])
        assert cc.cardinality() == 32
        assert {str(w) for w in cc.components[1].codewords} == {"000000", "111111"}
        assert {str(w) for w in cc.components[2].codewords} == {"000000", "111111"}


class TestColumnOperations:
    def test_member_segments_have_zero_syndrome(self):
        cc = SuperColumnCode([LinearCode.from_parity(h) for h in H_322])
        word = cc.encode([BV("101"), BV("11010"), BV("0110")])
        assert all(s.bits == 0 for s in cc.syndrome(word))

    def test_hamming_stack_shares_valid_word(self):
        cc = col_family("hamming", (3, 3))
        word = SuperCodeword.of("0100101", "0100101", "0100101")
        assert cc.is_member(word)

    def test_decode_corrects_within_capability(self):
        cc = col_family("hamming", (3, 2))
        sent = cc.encode([BV("1010"), BV("1100")])
        received = SuperCodeword((sent.segments[0].with_flipped([1]),
                                  sent.segments[1].with_flipped([5])))
        decoded, err = cc.decode(received)
        assert decoded == sent
        assert super_weight(err) == 2

    def test_generator_stacks_component_blocks(self):
        hs = [BM(["1010100", "0101010", "1110001"]), BM(["0110100", "1001010", "1010001"]),
              BM(["1001100", "1110010", "1001001"]), BM(["0110100", "1111010", "1011001"])]
        cc = SuperColumnCode([LinearCode.from_parity(h) for h in hs])
        gs = cc.generator()
        expected = BM([
            "1000101", "0100011", "0010101", "0001010",
            "1000011", "0100100", "0010101", "0001010",
            "1000111", "0100010", "0010010", "0001101",
            "1000011", "0100110", "0010111", "0001011",
        ])
        assert gs.body == expected
        assert gs.row_cuts == (4, 8, 12)
        # G_s H_s^T is a zero super column matrix, blockwise.
        from gridfec.gf2 import transpose
        for code, (r0, r1) in zip(cc.components, gs.block_row_spans()):
            block = BitMatrix(r1 - r0, 7, gs.body.row_words[r0:r1])
            assert mat_mul(block, transpose(code.h)).is_zero()

    def test_parity_matrix_stacks_component_blocks(self):
        cc = SuperColumnCode([LinearCode.from_parity(h) for h in H_322])
        hs = cc.parity_matrix()
        assert hs.body == BM(["0011000", "0100100", "1110010", "1000001",
                              "1100010", "1101001",
                              "1010100", "0110010", "1111001"])
        assert hs.row_cuts == (4, 6)
        assert hs.col_cuts == ()


class TestColumnFamilies:
    def test_repetition_column(self):
        cc = col_family("repetition", (6, 3))
        assert cc.cardinality() == 8
        words = {"|".join([a, b, c])
                 for a in ("000000", "111111")
                 for b in ("000000", "111111")
                 for c in ("000000", "111111")}
        produced = set()
        for m in range(8):
            msgs = [BitVector(1, (m >> i) & 1) for i in range(3)]
            produced.add(str(cc.encode(msgs)))
        assert produced == words

    def test_parity_column(self):
        assert col_family("parity", (4, 3)).cardinality() == 512

    def test_cyclic_column(self):
        cc = col_family("cyclic", [(7, _poly("1011")), (7, _poly("1101"))])
        assert isinstance(cc, SuperColumnCode)
        assert cc.length == 7
        assert all(c.is_cyclic() and c.k == 4 for c in cc.components)
        assert cc.components[0].h != cc.components[1].h
        assert cc.cardinality() == 256

    def test_unknown_kind_rejected(self):
        with pytest.raises(CompositionError, match="^unknown column family kind 'golay'$"):
            col_family("golay", (3, 2))

    def test_mixed_column_rate(self):
        h4 = BM(["1001000", "0110100", "1010010", "1110001"])
        cc = SuperColumnCode([parity_check(7), repetition(7), hamming(3),
                              LinearCode.from_parity(h4)])
        assert cc.transmission_rate() == Fraction(14, 28)
        assert cc.transmission_rate() == Fraction(1, 2)


class TestTransmissionRate:
    def test_three_component_row(self):
        rc = SuperRowCode([LinearCode.from_parity(h) for h in H_311])
        assert rc.transmission_rate() == Fraction(12, 21)

    def test_single_component(self):
        assert SuperRowCode([hamming(3)]).transmission_rate() == Fraction(4, 7)


class TestMembershipInvariant:
    def test_membership_iff_componentwise(self):
        rng = random.Random(21)
        rc = row_318()
        for _ in range(200):
            segs = (BitVector(4, rng.getrandbits(4)), BitVector(5, rng.getrandbits(5)))
            word = SuperCodeword(segs)
            componentwise = all(c.is_member(s) for c, s in zip(rc.components, segs))
            assert rc.is_member(word) == componentwise

    def test_cardinality_by_product_enumeration(self):
        rc = row_318()
        words = {(a.bits, b.bits)
                 for a in rc.components[0].codewords
                 for b in rc.components[1].codewords}
        assert len(words) == rc.cardinality()



def _pinned_codes():
    return [row_318(),
            SuperRowCode([LinearCode.from_parity(h) for h in H_311]),
            SuperColumnCode([LinearCode.from_parity(h) for h in H_322])]


class TestComponentwiseAgreement:
    """Each super code operation equals its components' own, segment by segment."""

    @pytest.mark.parametrize("index", range(3))
    def test_operations_match_components(self, index):
        code = _pinned_codes()[index]
        comps = code.components
        rng = random.Random(100 + index)
        for _ in range(40):
            messages = [BitVector(c.k, rng.getrandbits(c.k)) for c in comps]
            sent = code.encode(messages)
            assert sent.segments == tuple(c.encode(a) for c, a in zip(comps, messages))
            word = SuperCodeword(tuple(BitVector(c.n, rng.getrandbits(c.n)) for c in comps))
            for w in (sent, word):
                assert code.syndrome(w) == tuple(c.syndrome(s)
                                                 for c, s in zip(comps, w.segments))
                assert code.is_member(w) == all(c.is_member(s)
                                                for c, s in zip(comps, w.segments))
                pairs = [c.decode(s) for c, s in zip(comps, w.segments)]
                assert code.decode(w) == (SuperCodeword(tuple(p[0] for p in pairs)),
                                          SuperCodeword(tuple(p[1] for p in pairs)))

    @pytest.mark.parametrize("index", range(3))
    def test_misshapen_words_rejected(self, index):
        code = _pinned_codes()[index]
        segs = [BitVector.zeros(c.n) for c in code.components]
        wrong_count = SuperCodeword(tuple(segs[:-1]))
        wrong_length = SuperCodeword((BitVector.zeros(segs[0].length + 1), *segs[1:]))
        for word in (wrong_count, wrong_length):
            for op in (code.syndrome, code.is_member, code.decode):
                with pytest.raises(CompositionError):
                    op(word)
        messages = [BitVector.zeros(c.k) for c in code.components]
        for wrong in (messages[:-1], messages + messages[:1]):
            with pytest.raises(CompositionError):
                code.encode(wrong)


def _poly(s: str):
    from gridfec.gf2 import Gf2Poly
    return Gf2Poly.from_string(s)
