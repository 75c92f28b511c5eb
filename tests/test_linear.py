import random
import time
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import pytest

from gridfec.gf2 import (
    BitMatrix,
    BitVector,
    eliminate,
    mat_mul,
    mat_vec,
    mat_vec_bits,
    null_space_basis,
    transpose,
)
from gridfec import gf2, linear
from gridfec.linear import MAX_CODE_LENGTH, CapacityError, CodeError, LinearCode

BV = BitVector.from_string
BM = BitMatrix.from_strings

H_121 = BM(["0101000", "1010100", "0010010", "0010001"])
G_124 = BM(["1000100", "0101000", "0010111"])
WORDS_124 = {
    "0000000", "1000100", "0101000", "0010111",
    "1101100", "1010011", "0111111", "1111011",
}
H_126 = BM(["10110", "11001"])
WORDS_126 = {"00000", "10011", "01001", "00110", "11010", "10101", "01111", "11100"}
G_128 = BM(["1110100", "0111010", "0011101"])
H_125 = BM(["1001000", "0010100", "1100010", "1010001"])


def random_code(rng: random.Random, max_n: int = 10) -> LinearCode:
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, n - 1)
        words = tuple(rng.getrandbits(n) for _ in range(m))
        if any(words):
            h = BitMatrix(m, n, words)
            code = LinearCode.from_parity(h)
            if 1 <= code.k < n:
                return code



def family_codes() -> list[LinearCode]:
    from gridfec.families import hamming, parity_check, repetition
    return [hamming(3), hamming(4), repetition(9), repetition(14), parity_check(17)]


def frozen_coset_walk(code: LinearCode) -> list[tuple[int, int]]:
    """The coset table's items, (syndrome bits, leader bits), as the reference
    walk builds them: supports by weight, then lexicographically, first wins."""
    total = 1 << (code.n - code.k)
    leaders = {0: 0}
    units = [1 << i for i in range(code.n)]
    for support in chain.from_iterable(combinations(units, w) for w in range(1, code.n + 1)):
        if len(leaders) == total:
            break
        e = sum(support)
        s = mat_vec_bits(code.h.row_words, e)
        if s not in leaders:
            leaders[s] = e
    return list(leaders.items())


def walk_position(n: int, support: int) -> int:
    """The 1-based place of a nonzero support in the walk of the supports of
    n bits by weight, then lexicographically; 0 for the zero support."""
    if not support:
        return 0
    w = support.bit_count()
    positions = tuple(i for i in range(n) if support >> i & 1)
    return (sum(comb(n, j) for j in range(1, w))
            + list(combinations(range(n), w)).index(positions) + 1)


def direct_weights(code: LinearCode) -> list[int]:
    """A_0 .. A_n counted over every codeword."""
    counts = [0] * (code.n + 1)
    for w in code.codewords:
        counts[w.weight()] += 1
    return counts


class TestFromParity:
    def test_worked_seven_three(self):
        c = LinearCode.from_parity(H_121)
        assert (c.n, c.k) == (7, 3)
        assert {str(w) for w in c.codewords} == WORDS_124
        assert BV("1101100") in c.codewords
        assert BV("1111011") in c.codewords

    def test_identity_gives_zero_code(self):
        c = LinearCode.from_parity(BitMatrix.identity(4))
        assert c.k == 0
        assert c.codewords == frozenset({BitVector.zeros(4)})

    def test_worked_five_three(self):
        c = LinearCode.from_parity(H_126)
        assert {str(w) for w in c.codewords} == WORDS_126

    def test_empty_rejected(self):
        with pytest.raises(CodeError):
            LinearCode.from_parity(BitMatrix(0, 0, ()))


class TestFromGenerator:
    def test_same_codewords_as_parity_construction(self):
        c = LinearCode.from_generator(G_124)
        assert {str(w) for w in c.codewords} == WORDS_124

    def test_identity_generator_full_space(self):
        c = LinearCode.from_generator(BitMatrix.identity(3))
        assert c.k == 3
        assert len(c.codewords) == 8

    def test_cyclic_generator(self):
        c = LinearCode.from_generator(G_128)
        assert BV("1110100") in c.codewords
        assert len(c.codewords) == 8

    def test_dependent_rows_rejected(self):
        with pytest.raises(CodeError):
            LinearCode.from_generator(BM(["101", "101"]))

    def test_eliminates_g_and_h_once_each(self, monkeypatch):
        """G's rows are eliminated only for its null space; its rank takes no elimination."""
        rows = []

        def counted(words, columns):
            rows.append(len(words))
            return eliminate(words, columns)

        monkeypatch.setattr(gf2, "eliminate", counted)
        monkeypatch.setattr(linear, "eliminate", counted)
        LinearCode.from_generator(G_124)
        assert rows == [3, 4]

    def test_gh_orthogonal(self):
        c = LinearCode.from_generator(G_128)
        assert mat_mul(c.generator(), transpose(c.h)).is_zero()


def _standard_reference(h: BitMatrix, k: int):
    """The (A, I) / (I_k, A^T) construction that `_standard` replaced, kept as its
    oracle; None where H needs column swaps."""
    n, m = h.cols, h.cols - k
    words = list(h.row_words)
    pivots = eliminate(words, range(k, n))
    if any(j not in pivots for j in range(k, n)):
        return None
    h_std = BitMatrix(m, n, tuple(words[:m]))
    a = BitMatrix(m, k, tuple(w & ((1 << k) - 1) for w in words[:m]))
    at = transpose(a)
    g_words = tuple((1 << i) | (at.row_words[i] << k) for i in range(k))
    return h_std, BitMatrix(k, n, g_words)


def random_systematic_h(rng: random.Random) -> BitMatrix:
    """(A | I_m) with its rows mixed, sometimes with one dependent row appended."""
    n = rng.randint(1, 12)
    m = rng.randint(1, n)
    k = n - m
    words = [rng.getrandbits(k) | (1 << (k + r)) for r in range(m)]
    for _ in range(2 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            words[i] ^= words[j]
    if rng.random() < 0.3 and m < n:
        words.append(words[0] ^ words[-1])
    return BitMatrix(len(words), n, tuple(words))


class TestStandardize:
    def test_matches_frozen_construction(self):
        rng = random.Random(22)
        for _ in range(400):
            h = random_systematic_h(rng)
            code = LinearCode.from_parity(h)
            want = _standard_reference(h, code.k)
            assert want is not None
            assert code.standardize() == want
            assert code.generator() == want[1]

    def test_refusals_match_frozen_construction(self):
        rng = random.Random(23)
        for _ in range(300):
            code = random_code(rng, max_n=9)
            want = _standard_reference(code.h, code.k)
            if want is None:
                with pytest.raises(CodeError, match="admits no pivot"):
                    code.standardize()
            else:
                assert code.standardize() == want

    def test_recovers_canonical_generator(self):
        h_std, g_std = LinearCode.from_parity(H_121).standardize()
        assert g_std == G_124
        assert h_std == H_121

    def test_already_standard_is_fixed_point(self):
        h = BM(["1110", "0101"])  # (A, I_2) with A = [[1,1],[0,1]]
        h_std, g_std = LinearCode.from_parity(h).standardize()
        assert h_std == h
        assert mat_mul(g_std, transpose(h_std)).is_zero()

    def test_super_row_component(self):
        # (8, 4) component whose printed generator pairs with its H block.
        h2 = BM(["11001000", "00110100", "10010010", "11110001"])
        g2 = BM(["10001011", "01001001", "00100101", "00010111"])
        _, g_std = LinearCode.from_parity(h2).standardize()
        assert g_std == g2

    def test_column_swap_needed_is_refused(self):
        # Null space of (1 1 0) needs a coordinate swap to reach (A, I) form.
        # In (1001 / 0101) column 2 has no pivot while column 3 has one; the
        # first column without a pivot is the one reported.
        for rows in (["110"], ["1001", "0101"]):
            with pytest.raises(CodeError, match="column 2"):
                LinearCode.from_parity(BM(rows)).standardize()

    def test_computed_once(self):
        c = LinearCode.from_parity(H_121)
        assert c.standardize() is c.standardize()
        assert c.generator() is c.standardize()[1]

    def test_refusal_raises_on_every_call(self):
        c = LinearCode.from_parity(BM(["110"]))
        for _ in range(2):
            with pytest.raises(CodeError, match="column 2"):
                c.standardize()


class TestCodeBasis:
    def test_null_space_found_once(self, monkeypatch):
        from gridfec.families import hamming
        calls = []
        real = linear.null_space
        monkeypatch.setattr(linear, "null_space", lambda *a: calls.append(a) or real(*a))
        c = hamming(3)
        for _ in range(2):
            c.dual()
            assert not c.is_cyclic()
        assert len(c.codewords) == 16
        assert len(calls) == 1

    def test_no_elimination_after_construction(self, monkeypatch):
        # The basis comes from the pivots of the one elimination in __init__.
        from gridfec.families import hamming
        calls = []
        for module in (gf2, linear):  # rank() reads gf2's name, __init__ linear's
            monkeypatch.setattr(module, "eliminate",
                                lambda w, cols, real=eliminate: calls.append(w) or real(w, cols))
        c = hamming(3)
        calls.clear()
        assert c._basis and len(c.codewords) == 16 and not c.is_cyclic()
        assert calls == []
        # dual() runs only the eliminations of building its result.
        c = hamming(3)
        calls.clear()
        d = c.dual()
        used_by_dual = len(calls)
        calls.clear()
        LinearCode(d.h, d.generator())
        assert used_by_dual == len(calls)

    def test_basis_is_the_null_space_of_h(self):
        rng = random.Random(24)
        for _ in range(300):
            code = random_code(rng)
            assert code._basis == tuple(v.bits for v in null_space_basis(code.h))
            members = [x for x in range(1 << code.n) if not mat_vec_bits(code.h.row_words, x)]
            assert code.codewords == frozenset(BitVector(code.n, x) for x in members)
            dual = code.dual()
            assert dual.h.row_words == code._basis
            assert dual.generator().row_words == code._dual_basis


class TestEncode:
    def test_worked_messages(self):
        c = LinearCode(H_121, G_124)
        assert str(c.encode(BV("110"))) == "1101100"
        assert str(c.encode(BV("101"))) == "1010011"

    def test_zero_message(self):
        c = LinearCode(H_121, G_124)
        assert c.encode(BV("000")) == BitVector.zeros(7)

    def test_length_mismatch(self):
        with pytest.raises(CodeError):
            LinearCode(H_121, G_124).encode(BV("11"))

    def test_all_messages_give_all_codewords(self):
        c = LinearCode(H_121, G_124)
        encoded = {str(c.encode(BitVector(3, m))) for m in range(8)}
        assert encoded == WORDS_124


class TestSyndrome:
    def test_codeword_zero(self):
        c = LinearCode.from_parity(H_121)
        for w in c.codewords:
            assert c.syndrome(w).bits == 0

    def test_worked_nonzero(self):
        c = LinearCode.from_parity(BM(["1010", "1101"]))
        assert str(c.syndrome(BV("1111"))) == "01"

    def test_direct_evaluation(self):
        c = LinearCode.from_parity(H_121)
        y = BV("1111110")
        assert c.syndrome(y) == mat_vec(H_121, y)

    def test_length_mismatch(self):
        with pytest.raises(CodeError):
            LinearCode.from_parity(H_121).syndrome(BV("101"))


class TestMinDistance:
    def test_worked_codes(self):
        assert LinearCode.from_parity(H_121).min_distance() == 2

    def test_brute_force_pairwise_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            c = random_code(rng, max_n=9)
            words = sorted(c.codewords, key=lambda w: w.bits)
            pairwise = min((a.bits ^ b.bits).bit_count()
                           for a, b in combinations(words, 2))
            assert c.min_distance() == pairwise

    def test_zero_code_rejected(self):
        with pytest.raises(CodeError):
            LinearCode.from_parity(BitMatrix.identity(3)).min_distance()

    def test_enumeration_guard(self):
        rng = random.Random(60)
        h = BitMatrix(30, 60, tuple(rng.getrandbits(60) for _ in range(30)))
        code = LinearCode.from_parity(h)
        assert min(code.k, code.n - code.k) > 24  # both sides past MAX_MESSAGE_BITS
        with pytest.raises(CapacityError):
            code.min_distance()

    def test_error_capability(self):
        assert LinearCode.from_parity(H_126).error_capability() == 0  # d = 2


class TestCosetDecoding:
    def test_worked_decode(self):
        c = LinearCode.from_parity(H_126)
        word, err = c.decode(BV("11110"))
        assert str(word) == "11010"
        assert str(err) == "00100"

    def test_worked_leaders(self):
        c = LinearCode.from_parity(H_126)
        leaders = {str(l) for _, l in c.coset_table.items()}
        assert leaders == {"00000", "10000", "01000", "00100"}

    def test_zero_syndrome_maps_to_zero(self):
        c = LinearCode.from_parity(H_126)
        assert c.coset_table[0] == BitVector.zeros(5)

    def test_member_decodes_to_itself(self):
        c = LinearCode.from_parity(H_126)
        for w in c.codewords:
            word, err = c.decode(w)
            assert word == w and err.bits == 0

    def test_hamming_leaders_are_unit_vectors(self):
        from gridfec.families import hamming
        code = hamming(3)
        leaders = {l for _, l in code.coset_table.items()}
        expected = {BitVector.zeros(7)} | {BitVector(7, 1 << i) for i in range(7)}
        assert leaders == expected

    def test_leader_weight_minimal_in_coset(self):
        rng = random.Random(7)
        for _ in range(5):
            c = random_code(rng, max_n=8)
            for syndrome, leader in c.coset_table.items():
                coset = [BitVector(c.n, v) for v in range(1 << c.n)
                         if c.syndrome(BitVector(c.n, v)).bits == syndrome]
                assert leader.weight() == min(v.weight() for v in coset)

    def test_capacity_guard(self):
        h = BitMatrix(21, 42, tuple(1 << i | 1 << (41 - i) for i in range(21)))
        code = LinearCode.from_parity(h)
        with pytest.raises(CapacityError):
            code.coset_table


class TestDual:
    def test_worked_seven_three_dual(self):
        c = LinearCode.from_parity(H_125)
        d = c.dual()
        assert (d.n, d.k) == (7, 4)
        assert BV("1101111") in d.codewords
        assert BV("0100111") in d.codewords

    def test_dual_of_full_space_is_zero_code(self):
        full = LinearCode.from_generator(BitMatrix.identity(3))
        d = full.dual()
        assert d.k == 0
        assert d.codewords == frozenset({BitVector.zeros(3)})

    def test_dual_of_zero_code_is_full_space(self):
        d = LinearCode.from_parity(BitMatrix.identity(3)).dual()
        assert d.k == 3
        assert d.h == BitMatrix(1, 3, (0,))
        assert d.generator() == BitMatrix.identity(3)

    def test_double_dual_identity(self):
        rng = random.Random(4)
        for _ in range(10):
            c = random_code(rng)
            assert c.dual().dual().codewords == c.codewords

    def test_orthogonality_and_dimension(self):
        rng = random.Random(6)
        for _ in range(10):
            c = random_code(rng)
            d = c.dual()
            assert c.k + d.k == c.n
            for u in c.codewords:
                for v in d.codewords:
                    assert (u.bits & v.bits).bit_count() % 2 == 0


class TestIsCyclic:
    def test_worked_cyclic_code(self):
        assert LinearCode.from_generator(G_128).is_cyclic()

    def test_zero_code(self):
        assert LinearCode.from_parity(BitMatrix.identity(4)).is_cyclic()

    def test_non_cyclic(self):
        # The right shift of 1000100 is 0100010, which is not a codeword.
        c = LinearCode.from_parity(H_121)
        assert BV("0100010") not in c.codewords
        assert not c.is_cyclic()

    def test_past_the_enumeration_guard(self):
        from gridfec.families import parity_check, repetition
        assert parity_check(30).is_cyclic()
        assert repetition(30).is_cyclic()
        # x0 + x1 = 0 on 30 bits: k = 29, and the shift of 110...0 breaks the check.
        c = LinearCode.from_parity(BitMatrix(1, 30, (0b11,)))
        assert c.k > 24
        assert not c.is_cyclic()

    def test_matches_all_codewords_definition(self):
        from gridfec.families import CyclicSpec, cyclic_from_poly
        from gridfec.gf2 import Gf2Poly
        rng = random.Random(12)
        codes = [random_code(rng) for _ in range(30)]
        while len(codes) < 60:
            n = rng.randint(2, 10)
            try:
                cyc = cyclic_from_poly(CyclicSpec(n, Gf2Poly(rng.getrandbits(n) | 1)))
            except CodeError:
                continue
            # Both basis sources: the generator rows and the null space of H.
            codes += [cyc, LinearCode.from_parity(cyc.h)]
        seen = set()
        for c in codes:
            words = c.codewords
            expected = all(w.shift_right() in words for w in words)
            assert c.is_cyclic() == expected
            seen.add(expected)
        assert seen == {True, False}


class TestRate:
    def test_worked(self):
        assert LinearCode.from_parity(H_121).transmission_rate() == Fraction(3, 7)

    def test_repetition_like(self):
        from gridfec.families import repetition
        assert repetition(6).transmission_rate() == Fraction(1, 6)

    def test_hamming(self):
        from gridfec.families import hamming
        assert hamming(3).transmission_rate() == Fraction(4, 7)

    def test_repr_names_the_parameters(self):
        assert repr(LinearCode.from_parity(H_121)) == "LinearCode(n=7, k=3)"


class TestInvariants:
    def test_codeword_count_matches_rank(self):
        rng = random.Random(9)
        for _ in range(15):
            c = random_code(rng)
            assert len(c.codewords) == 1 << c.k
            # Exhaustively confirm the zero-syndrome set is the codeword set.
            if c.n <= 14:
                members = {BitVector(c.n, v) for v in range(1 << c.n)
                           if c.syndrome(BitVector(c.n, v)).bits == 0}
                assert members == set(c.codewords)

    def test_decode_corrects_within_capability(self):
        rng = random.Random(10)
        for _ in range(8):
            c = random_code(rng, max_n=8)
            t = c.error_capability()
            for w in c.codewords:
                for wt in range(1, t + 1):
                    for support in combinations(range(c.n), wt):
                        word, _ = c.decode(w.with_flipped(support))
                        assert word == w


class TestDetectCorrectTradeoff:
    def test_distance_three_cases(self):
        code = hamming3()
        assert code.can_correct_and_detect(1, 0)
        assert code.can_correct_and_detect(0, 2)
        assert not code.can_correct_and_detect(1, 1)

    def test_distance_five(self):
        from gridfec.families import repetition
        code = repetition(5)
        assert code.can_correct_and_detect(2, 0)
        assert code.can_correct_and_detect(1, 2)
        assert not code.can_correct_and_detect(2, 1)

    def test_negative_rejected(self):
        with pytest.raises(CodeError):
            hamming3().can_correct_and_detect(-1, 0)


class TestEnumerationPins:
    """Outputs of the exhaustive walks, pinned against reference enumerations."""

    def test_coset_table_items_and_order(self):
        rng = random.Random(1101)
        codes = family_codes() + [random_code(rng, max_n=14) for _ in range(300)]
        for c in codes:
            items = [(s, e.bits) for s, e in c.coset_table.items()]
            assert items == frozen_coset_walk(c), c

    def test_min_distance_matches_direct_enumeration(self):
        rng = random.Random(1102)
        for _ in range(60):
            c = random_code(rng, max_n=16)
            weights = direct_weights(c)
            assert c.min_distance() == next(j for j in range(1, c.n + 1) if weights[j])

    def test_golay_min_distance(self):
        golay = golay_code()
        assert (golay.n, golay.k) == (23, 12)
        assert golay.min_distance() == 7


class TestWeightDistribution:
    def test_matches_direct_enumeration(self):
        rng = random.Random(1103)
        sides = set()
        for _ in range(80):
            c = random_code(rng, max_n=20)
            if max(c.k, c.n - c.k) > 16:
                continue
            assert list(c.weight_distribution) == direct_weights(c)
            sides.add(c.k <= c.n - c.k)
        assert sides == {True, False}  # both the direct walk and MacWilliams ran

    def test_counts_sum_to_the_code_size(self):
        rng = random.Random(1104)
        for c in family_codes() + [random_code(rng, max_n=20) for _ in range(40)]:
            a = c.weight_distribution
            assert len(a) == c.n + 1 and a[0] == 1
            assert sum(a) == 1 << c.k

    def test_golay_golden(self):
        expected = {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}
        assert golay_code().weight_distribution == tuple(expected.get(j, 0) for j in range(24))

    def test_zero_code_and_full_space(self):
        zero = LinearCode.from_parity(BitMatrix.identity(4))
        assert zero.weight_distribution == (1, 0, 0, 0, 0)
        full = LinearCode.from_generator(BitMatrix.identity(4))
        assert full.weight_distribution == (1, 4, 6, 4, 1)

    def test_dual_side_past_the_message_guard(self):
        from math import comb

        from gridfec.families import hamming, parity_check
        pc = parity_check(26)  # k = 25 > MAX_MESSAGE_BITS; the dual has 2 words
        assert pc.weight_distribution == tuple(comb(26, j) * (1 - j % 2) for j in range(27))
        assert pc.min_distance() == 2
        assert hamming(5).min_distance() == 3  # k = 26, n - k = 5


    def test_transform_guard_on_length(self):
        # One check row: the dual has 2 words, but the transform's n + 1
        # integers of up to n bits each grow with n squared.
        edge = LinearCode.from_parity(BM(["1" * MAX_CODE_LENGTH]))
        assert edge.min_distance() == 2
        wide = LinearCode.from_parity(BM(["1" * (MAX_CODE_LENGTH + 1)]))
        with pytest.raises(CapacityError, match="transform guard"):
            wide.min_distance()
        long_repetition = LinearCode.from_generator(BM(["1" * 2000]))  # k = 1: no transform
        assert long_repetition.min_distance() == 2000

class TestLeaderBits:
    def test_coset_table_is_a_view_of_the_leaders(self):
        rng = random.Random(1105)
        for c in family_codes() + [random_code(rng, max_n=12) for _ in range(30)]:
            assert [(s, e.bits) for s, e in c.coset_table.items()] == list(c.leader_bits.items())

    def test_decode_reads_the_leaders_only(self):
        c = LinearCode.from_parity(H_126)
        word, err = c.decode(BV("11110"))
        assert (str(word), str(err)) == ("11010", "00100")
        assert "coset_table" not in vars(c)

    def test_lazy_lookups_follow_the_frozen_walk(self):
        rng = random.Random(1106)
        for c in family_codes() + [random_code(rng, max_n=14) for _ in range(120)]:
            frozen = frozen_coset_walk(c)
            leaders = dict(frozen)
            # One lookup on a fresh walk records no leader heavier than its error.
            for _ in range(3):
                e = rng.getrandbits(c.n)
                s = mat_vec_bits(c.h.row_words, e)
                fresh = LinearCode.from_parity(c.h)
                assert fresh.leader_bits[s] == leaders[s]
                assert max(map(int.bit_count, fresh.leader_bits.values())) <= e.bit_count()
                # The lookup stops at its leader's support.
                assert fresh.leader_bits.walked == walk_position(c.n, leaders[s])
            syndromes = list(leaders)
            rng.shuffle(syndromes)
            for s in syndromes:
                assert c.leader_bits[s] == leaders[s], c
            assert [(s, e.bits) for s, e in c.coset_table.items()] == frozen, c


def random_1024_1004() -> LinearCode:
    rng = random.Random(1024)
    return LinearCode.from_parity(
        BitMatrix(20, 1024, tuple(rng.getrandbits(1024) for _ in range(20))))


class TestCosetWalkBudget:
    @pytest.mark.parametrize("weight", [1, 2])
    def test_long_code_decodes_one_word_quickly(self, weight):
        # n - k = 20: the full table is 2^20 cosets, but one lookup walks
        # only the supports up to its error's weight.
        code = random_1024_1004()
        assert (code.n, code.k) == (1024, 1004)
        positions = random.Random(weight).sample(range(1024), weight)
        error = BitVector(1024, sum(1 << i for i in positions))
        start = time.perf_counter()
        word, err = code.decode(error)
        assert time.perf_counter() - start < 1.0
        assert word.bits == error.bits ^ err.bits and err.weight() <= weight
        # The packed supports here are 1044-bit ints: 20 syndrome bits under 1024 support bits.
        assert code.leader_bits.walked == walk_position(1024, err.bits)

    def test_budget_counts_every_lookup(self, monkeypatch):
        from gridfec.families import repetition
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 9)
        code = repetition(9)
        assert code.decode(BV("000000010"))[1] == BV("000000010")  # the 9 weight-1 supports
        with pytest.raises(CapacityError, match="budget of 9 supports"):
            code.decode(BV("110000000"))
        assert code.leader_bits.walked == 9

    def test_walk_resumes_after_its_budget(self, monkeypatch):
        from gridfec.families import repetition
        code = repetition(9)
        syndrome = mat_vec_bits(code.h.row_words, 0b11)  # the support at walk position 10
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 9)
        with pytest.raises(CapacityError, match="budget of 9 supports"):
            code.leader_bits[syndrome]
        # The failed lookup took no support it did not record, so this one goes on from 9.
        monkeypatch.undo()
        assert code.leader_bits[syndrome] == 0b11
        assert code.leader_bits.walked == walk_position(9, 0b11) == 10

    def test_full_table_refused_before_walking(self, monkeypatch):
        from gridfec.families import repetition
        code = repetition(9)
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 254)  # 256 cosets need 255 supports
        with pytest.raises(CapacityError, match="256 cosets"):
            code.coset_table
        assert code.leader_bits.walked == 0
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 255)
        assert len(code.coset_table) == 256

    @pytest.mark.parametrize("syndrome", [1 << 8, -1])
    def test_syndrome_past_the_columns_refused_before_walking(self, monkeypatch, syndrome):
        # repetition(9)'s syndromes have 8 bits; a wider or negative one has no
        # coset, even under a budget that would stop a walk after 9 supports.
        from gridfec.families import repetition
        code = repetition(9)
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 9)
        with pytest.raises(KeyError):
            code.leader_bits[syndrome]
        assert code.leader_bits.walked == 0

    def test_syndrome_outside_the_column_space_walks_every_coset(self):
        # Dependent rows: 3 syndrome bits but only 4 cosets, all of weight <= 1.
        code = LinearCode.from_parity(BM(["110", "110", "011"]))
        assert code.k == 1
        with pytest.raises(KeyError):
            code.leader_bits[0b010]
        assert (len(code.leader_bits), code.leader_bits.walked) == (4, 3)


def golay_code() -> LinearCode:
    from gridfec.families import CyclicSpec, cyclic_from_poly
    from gridfec.gf2 import Gf2Poly
    return cyclic_from_poly(CyclicSpec(23, Gf2Poly.from_string("110001110101")))


def hamming3():
    from gridfec.families import hamming
    return hamming(3)
