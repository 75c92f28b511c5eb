"""The trial loop against a frozen copy of the loop it replaced.

`reference_run_trial` and its helpers are the per-cell channel loop as it
stood before the integer kernel: one `derive_seed` over all four indices,
one `ChannelConfig` and one `bsc_corrupt` per cell, received words built as
BitVectors, and the undetected-error check and decoding each computing
their own syndromes.  The copy is verbatim apart from its names, the
input checks at the top of run_trial, and the two strategy calls, which go to
the frozen rules below; the reconcile call parses back the row and column
streams it formats, so the reference still runs the text path.  It must not
be edited otherwise: it is the reference for the bit-identical channel
stream.

The strategy rules are frozen here too: `reference_majority_vote`,
`reference_vote`, `reference_reconcile` and `reference_arbitrate` are
verbatim copies of the BitVector voting and arbitration of
`GridCode.majority_vote` and `GridCode.simultaneous_reconcile` as they stood
before those rules moved to cell bits, minus the shape checks and the
disagreement list that the loop does not read.  So the reference shares no
rule with the code under test; it still uses `LinearCode.syndrome` and
`decode`, `GridCode.decode` and the stream round trip.
"""

from collections import Counter
from pathlib import Path
from typing import Optional

import pytest

import gridfec.channel
from gridfec.channel import (
    _BLOCK_SLOTS,
    ChannelConfig,
    ChannelError,
    TrialReport,
    _Lanes,
    _threshold,
    _trial_masks,
    bsc_corrupt,
    run_trial,
)
from gridfec.families import hamming, parity_check
from gridfec.gf2 import BitMatrix, BitVector, distance
from gridfec.grid import GridCode, GridCodeword, arbitrate
from gridfec.linear import LinearCode
from gridfec.specio import parse_spec

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def reference_mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def reference_derive_seed(master: int, *indices: int) -> int:
    """Fold trial/cell indices into the master seed, one mix step each."""
    state = master & _M64
    for v in indices:
        state = reference_mix64((state + _GAMMA + v) & _M64)
    return state


def reference_xorshift_next(state: int) -> tuple[int, int]:
    state ^= state >> 12
    state = (state ^ (state << 25)) & _M64
    state ^= state >> 27
    return state, (state * 0x2545F4914F6CDD1D) & _M64


def reference_bsc_corrupt(cfg: ChannelConfig, x: BitVector) -> BitVector:
    """Flip each bit independently with probability p; fully seed-determined."""
    threshold = int(cfg.flip_probability * (1 << 64))
    state = reference_mix64(cfg.seed) or _GAMMA
    bits = x.bits
    for i in range(x.length):
        state, draw = reference_xorshift_next(state)
        if draw < threshold:
            bits ^= 1 << i
    return BitVector(x.length, bits)


def reference_trial_masks(master: int, trials: range, m: int, lengths: list[int], copies: int,
                          p: float) -> list[int]:
    """The flip mask of every stream (t, i, j, c), trial-major and copy fastest."""
    return [reference_bsc_corrupt(ChannelConfig(p, reference_derive_seed(master, t, i, j, c)),
                                  BitVector.zeros(length)).bits
            for t in trials for i in range(m) for j, length in enumerate(lengths)
            for c in range(copies)]


def reference_run_trial(grid: GridCode, sent: GridCodeword, strategy: str,
                        cfg: ChannelConfig, trials: int) -> TrialReport:
    """The trial loop only; the input checks are exercised by test_channel."""
    successes = 0
    undetected = 0
    residual = 0
    copies = 2 if strategy == "simultaneous" else 1
    for t in range(trials):
        received = []
        for copy in range(copies):
            cells = []
            for i in range(grid.m):
                row = []
                for j in range(grid.n):
                    seed = reference_derive_seed(cfg.seed, t, i, j, copy)
                    row.append(reference_bsc_corrupt(ChannelConfig(cfg.flip_probability, seed),
                                                     sent.cells[i][j]))
                cells.append(tuple(row))
            received.append(GridCodeword(tuple(cells)))

        if any(grid.cells[i][j].is_member(word.cells[i][j])
               and word.cells[i][j] != sent.cells[i][j]
               for word in received
               for i in range(grid.m) for j in range(grid.n)):
            undetected += 1

        if strategy == "per_cell_decode":
            decoded, _ = grid.decode(received[0])
            ok = decoded == sent
            residual += reference_grid_bit_errors(decoded, sent)
        elif strategy == "majority_vote":
            winner = reference_majority_vote(grid.cells[0][0], received[0])
            ok = winner == sent.cells[0][0]
            residual += distance(winner, sent.cells[0][0])
        else:
            word = reference_reconcile(
                grid,
                grid.from_row_stream(received[0].to_row_stream()),
                grid.from_col_stream(received[1].to_col_stream()))
            ok = word == sent
            residual += reference_grid_bit_errors(word, sent)
        if ok:
            successes += 1
    return TrialReport(trials, successes, undetected, residual)


def reference_grid_bit_errors(a: GridCodeword, b: GridCodeword) -> int:
    return sum(distance(a.cells[i][j], b.cells[i][j])
               for i in range(a.m) for j in range(a.n))


def reference_majority_vote(code: LinearCode, received: GridCodeword) -> BitVector:
    values = [c for row in received.cells for c in row if c is not None]
    winner, top = reference_vote(code, values)
    if top == 1 and len(values) > 1:
        decoded = [code.decode(v)[0] for v in values]
        winner, _ = reference_vote(code, decoded)
    return winner


def reference_vote(code: LinearCode, values: list[BitVector]) -> tuple[BitVector, int]:
    counts = Counter(values)
    top = max(counts.values())
    tied = [v for v, c in counts.items() if c == top]
    tied.sort(key=lambda v: (code.syndrome(v).weight(), str(v)))
    return tied[0], top


def reference_reconcile(grid: GridCode, row_word: GridCodeword,
                        col_word: GridCodeword) -> GridCodeword:
    out = []
    for i in range(grid.m):
        row = []
        for j in range(grid.n):
            a = row_word.cells[i][j]
            b = col_word.cells[i][j]
            if a == b:
                row.append(a)
                continue
            row.append(reference_arbitrate(grid.cells[i][j], a, b))
        out.append(tuple(row))
    return GridCodeword(tuple(out))


def reference_arbitrate(code: LinearCode, a: Optional[BitVector],
                        b: Optional[BitVector]) -> Optional[BitVector]:
    if a is None:
        return b
    if b is None:
        return a
    a_ok = code.syndrome(a).bits == 0
    b_ok = code.syndrome(b).bits == 0
    if a_ok or b_ok:
        return a if a_ok else b
    xa, ea = code.decode(a)
    xb, eb = code.decode(b)
    return xb if eb.weight() < ea.weight() else xa


BV = BitVector.from_string
FIXTURES = Path(__file__).parent / "fixtures"

# Twenty seeds from zero up and twenty from the top of the 64-bit range down,
# where the index folds wrap around.  They are spaced apart because trial t of
# seed s draws the same streams as trial t + 1 of seed s - 1.
SEEDS = [*range(0, 20 * 1009, 1009), *((1 << 64) - 1 - 1009 * k for k in range(20))]
PROBABILITIES = (0.0, 0.02, 0.2, 0.5, 1.0)


def _uniform_hamming():
    code = hamming(3)
    word = code.encode(BV("1011"))
    return GridCode.uniform(code, 2, 2), GridCodeword.from_rows([[word] * 2] * 2)


def _distinct_hamming():
    """Nine separately built hamming(3) codes carrying nine different codewords."""
    codes = [[hamming(3) for _ in range(3)] for _ in range(3)]
    grid = GridCode(codes)
    sent = grid.encode([[BitVector(4, (3 * i + j + 5) % 16) for j in range(3)]
                        for i in range(3)])
    return grid, sent


def _mixed_from_stream():
    """The Ex 3.3.1 grid with its sent word read back from a row stream."""
    grid = parse_spec((FIXTURES / "ex_3_3_1.json").read_text())
    word = grid.encode([[BV("011"), BV("1100")], [BV("10"), BV("011")],
                        [BV("110"), BV("0101")]])
    return grid, grid.from_row_stream(word.to_row_stream())


def _even_vote():
    """Two cells carrying 1111111: with one cell struck, half the cells are
    untouched and the count ties.  A struck cell that is another codeword then
    wins the tie, since 1111111 sorts after every other 7-bit string."""
    code = hamming(3)
    return GridCode.uniform(code, 1, 2), GridCodeword.from_rows([[BV("1111111")] * 2])


def _wide_and_narrow():
    """Columns of 7 and 130 bits: the wide streams run past one 128-draw chunk.

    Column 1 holds a (130, 127) code whose check columns cycle through the
    seven nonzero syndromes, so each row has the three checks of hamming(3).
    """
    wide = LinearCode.from_parity(BitMatrix.from_strings(
        ["".join(str((c % 7 + 1) >> r & 1) for c in range(130)) for r in range(3)]))
    grid = GridCode([[hamming(3), wide], [hamming(3), wide]])
    sent = grid.encode([[BV("1011"), BitVector(127, 0x5A5A << 100 | 0xC3)],
                        [BV("0110"), BitVector(127, (1 << 127) - 1)]])
    return grid, sent


CASES = {
    "per_cell_uniform": ("per_cell_decode", _uniform_hamming),
    "per_cell_distinct": ("per_cell_decode", _distinct_hamming),
    "per_cell_mixed": ("per_cell_decode", _mixed_from_stream),
    "per_cell_wide": ("per_cell_decode", _wide_and_narrow),
    "vote_uniform": ("majority_vote", _uniform_hamming),
    "vote_even": ("majority_vote", _even_vote),
    "simultaneous_uniform": ("simultaneous", _uniform_hamming),
    "simultaneous_mixed": ("simultaneous", _mixed_from_stream),
    "simultaneous_wide": ("simultaneous", _wide_and_narrow),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_frozen_trial_loop(case):
    strategy, build = CASES[case]
    grid, sent = build()
    for seed in SEEDS:
        for p in PROBABILITIES:
            cfg = ChannelConfig(p, seed)
            expected = reference_run_trial(grid, sent, strategy, cfg, 4)
            assert run_trial(grid, sent, strategy, cfg, 4) == expected, (seed, p)


def test_reference_reproduces_pinned_stream():
    # The frozen generator itself still gives the pinned output of test_channel.
    out = reference_bsc_corrupt(ChannelConfig(0.5, seed=12345), BitVector.zeros(16))
    assert out.bits == 0xD2D6


@pytest.mark.parametrize("p", [0.05, 0.5])
@pytest.mark.parametrize("length", [129, 257, 1000, 64, 65, 128])
def test_multi_chunk_stream(length, p):
    # 2, 3 and 8 chunks of 128 draws, so the chunks of one stream are joined;
    # then the edges of reading masks back: one 64-bit word, and one chunk.
    cfg = ChannelConfig(p, seed=0xC0FFEE + length)
    x = BitVector(length, int("10" * length, 2) >> length)
    assert bsc_corrupt(cfg, x) == reference_bsc_corrupt(cfg, x)


def test_empty_stream():
    # No draws and no chunk: the mask of a zero-length word is 0.
    cfg = ChannelConfig(0.5, seed=0xC0FFEE)
    x = BitVector(0, 0)
    assert bsc_corrupt(cfg, x) == reference_bsc_corrupt(cfg, x) == x


def _unshift(z: int, shift: int) -> int:
    """The inverse of z ^ (z >> shift) on 64-bit words."""
    x = z
    for _ in range(64 // shift):
        x = z ^ x >> shift
    return x


def _unmix64(z: int) -> int:
    """The inverse of reference_mix64: each multiplier and xorshift undone, last first."""
    z = _unshift(z, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _M64, 27)
    return _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _M64, 30)


def _master_of_zero_stream(*indices: int) -> int:
    """The master seed whose stream (t, i, j, c) = indices is seeded by 0: every
    fold of reference_derive_seed undone, last first."""
    master = 0
    for index in reversed(indices):
        master = (_unmix64(master) - _GAMMA - index) & _M64
    assert reference_derive_seed(master, *indices) == 0
    return master


def test_zero_stream_state_matches():
    # A stream seeded by 0 would stay at state 0, so it starts at _GAMMA.
    master = _master_of_zero_stream(3, 1, 2, 1)
    assert master == 0x51B3C76517F2881
    code = hamming(3)
    grid = GridCode.uniform(code, 2, 3)
    sent = GridCodeword.from_rows([[code.encode(BV("1011"))] * 3] * 2)
    cfg = ChannelConfig(0.3, master)
    # per_cell_decode draws copy 0 only; simultaneous draws the zero stream, in
    # the odd slot ((3 * 2 + 1) * 3 + 2) * 2 + 1 = 47 of its one kernel call.
    for strategy in ("per_cell_decode", "simultaneous"):
        assert run_trial(grid, sent, strategy, cfg, 5) == \
            reference_run_trial(grid, sent, strategy, cfg, 5)
    # mix64(0) == 0, so bsc_corrupt at seed 0 takes the same branch.
    cfg = ChannelConfig(0.3, 0)
    zeros = BitVector.zeros(200)
    assert bsc_corrupt(cfg, zeros) == reference_bsc_corrupt(cfg, zeros)


def test_zero_stream_in_an_even_slot_of_a_long_column():
    # Copy 0 of (t, i, j) = (3, 1, 1) is the even slot (3 * 2 + 1) * 3 + 1 = 22
    # of per_cell_decode's kernel call (44 of simultaneous'), and its 65 draws
    # span two chunks of 64.
    master = _master_of_zero_stream(3, 1, 1, 0)
    lengths = (3, 65, 5)
    grid = GridCode([[parity_check(n) for n in lengths]] * 2)
    sent = GridCodeword.from_rows([[BitVector.zeros(n) for n in lengths]] * 2)
    cfg = ChannelConfig(0.3, master)
    for strategy in ("per_cell_decode", "simultaneous"):
        assert run_trial(grid, sent, strategy, cfg, 5) == \
            reference_run_trial(grid, sent, strategy, cfg, 5)


# A 2x2 grid: four streams per trial and copy.
BLOCK_TRIALS = _BLOCK_SLOTS // 4


def _block_edges(strategy, block, *more):
    # Per-cell decoding's cases are named by their trial count alone.
    return [pytest.param(strategy, trials, id=str(trials) if strategy == "per_cell_decode"
                         else f"{strategy}-{trials}")
            for trials in (block - 1, block, block + 1, *more)]


@pytest.mark.parametrize("strategy, trials", [
    *_block_edges("per_cell_decode", BLOCK_TRIALS, 2 * BLOCK_TRIALS + 1),
    *_block_edges("majority_vote", BLOCK_TRIALS, 2 * BLOCK_TRIALS + 1),
    *_block_edges("simultaneous", BLOCK_TRIALS // 2, BLOCK_TRIALS + 1),
])
def test_block_boundaries(strategy, trials):
    # Each block's totals are split into trials and its memos emptied with it.
    grid, sent = _uniform_hamming()
    cfg = ChannelConfig(0.2, 1 << 63)
    assert run_trial(grid, sent, strategy, cfg, trials) == \
        reference_run_trial(grid, sent, strategy, cfg, trials)


# The Ex 3.3.1 grid: six single-copy streams per trial, and six check matrices.
MIXED_BLOCK_TRIALS = _BLOCK_SLOTS // 6


@pytest.mark.parametrize("strategy, trials", [
    *_block_edges("per_cell_decode", MIXED_BLOCK_TRIALS),
    *_block_edges("simultaneous", MIXED_BLOCK_TRIALS // 2),
])
def test_block_boundaries_on_a_mixed_grid(strategy, trials):
    # Each check matrix's memo is keyed by mask alone and emptied with the
    # block: the trials past the first block read fresh ones.
    grid, sent = _mixed_from_stream()
    cfg = ChannelConfig(0.2, 1 << 63)
    assert run_trial(grid, sent, strategy, cfg, trials) == \
        reference_run_trial(grid, sent, strategy, cfg, trials)


def _equal_rows_unequal_lengths():
    """A 1 x 2 grid whose parity rows 11 and 110 have the same row words (3,)
    at lengths 2 and 3: the two cells share one memo."""
    codes = [LinearCode.from_parity(BitMatrix.from_strings([rows])) for rows in ("11", "110")]
    return GridCode([codes]), GridCodeword.from_rows([[BV("11"), BV("111")]])


@pytest.mark.parametrize("strategy, trials", [
    ("per_cell_decode", _BLOCK_SLOTS // 2 - 1), ("per_cell_decode", _BLOCK_SLOTS // 2 + 1),
    ("simultaneous", _BLOCK_SLOTS // 4 - 1), ("simultaneous", _BLOCK_SLOTS // 4 + 1),
])
def test_memo_shared_across_lengths(strategy, trials):
    grid, sent = _equal_rows_unequal_lengths()
    assert grid.cells[0][0].h.row_words == grid.cells[0][1].h.row_words
    cfg = ChannelConfig(0.2, 1 << 63)
    assert run_trial(grid, sent, strategy, cfg, trials) == \
        reference_run_trial(grid, sent, strategy, cfg, trials)


def test_memo_sharing_grid_refused_by_vote():
    # Equal row words at unequal lengths are two check matrices, not a uniform grid.
    grid, sent = _equal_rows_unequal_lengths()
    with pytest.raises(ChannelError, match="uniform grid"):
        run_trial(grid, sent, "majority_vote", ChannelConfig(0.2, 1), 3)


@pytest.mark.parametrize("strategy", ["per_cell_decode", "simultaneous"])
def test_packed_totals_at_the_length_limit(strategy):
    # Two cells of the longest code length at p = 1: every mask is all ones, an
    # even-weight codeword, so a trial leaves 2048 bits and hides both cells,
    # all in one packed total.
    code = parity_check(1024)
    grid = GridCode.uniform(code, 1, 2)
    sent = GridCodeword.from_rows([[BitVector.zeros(1024)] * 2])
    cfg = ChannelConfig(1.0, 5)
    expected = reference_run_trial(grid, sent, strategy, cfg, 3)
    assert expected == TrialReport(3, 0, 3, 3 * 2048)
    assert run_trial(grid, sent, strategy, cfg, 3) == expected


@pytest.mark.parametrize("master", [0, (1 << 64) - 1])
@pytest.mark.parametrize("first", [1, (1 << 40) - 1])
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("lengths", [
    pytest.param([1], id="1"),
    pytest.param([1 + 5 * j % 13 for j in range(17)], id="17"),
    # On both sides of one and of two 64-draw chunks.
    pytest.param([63, 64, 65, 127, 128, 129], id="chunk-edges"),
])
@pytest.mark.parametrize("m", [1, 3, 16])
def test_trial_masks_match_reference_streams(m, lengths, copies, first, master):
    # Every fold of the kernel against the frozen per-stream derivation, with
    # trial ranges that start past 0, one of them near 2**40.
    trials = range(first, first + 3)
    assert _trial_masks(master, trials, m, lengths, copies, _threshold(0.3)) == \
        reference_trial_masks(master, trials, m, lengths, copies, 0.3)


class _NarrowLanes(_Lanes):
    """Lanes that check every state they multiply fits in `limit` slots."""

    __slots__ = ()
    limit = 0

    def times(self, z: int, c: int) -> int:
        assert z.bit_length() <= 64 * self.limit
        return super().times(z, c)


@pytest.mark.parametrize("uneven", [False, True], ids=["even", "uneven"])
@pytest.mark.parametrize("count, m, lengths, copies", [
    pytest.param(1, 1, [70], 1, id="1"),
    pytest.param(3, 5, [9] * 7, 1, id="odd"),
    pytest.param(1, 1, [3] * (_BLOCK_SLOTS - 1), 1, id="block-1"),
    pytest.param(2, 4, [3] * (_BLOCK_SLOTS // 16), 2, id="block"),
    # One trial wider than a block: the kernel call builds its own lanes.
    pytest.param(1, 1, [2] * (_BLOCK_SLOTS // 2 + 4), 2, id="wider"),
])
def test_trial_masks_at_block_slot_counts(count, m, lengths, copies, uneven, monkeypatch):
    # The lanes built at import are _BLOCK_SLOTS wide.  A kernel call on fewer
    # slots must cut `ones`, from which its top bits, threshold row and (with
    # even lengths) wanted draws are built: else a mask or the state it draws
    # from would run past the call's slots.
    if uneven:
        lengths = [length + j % 3 for j, length in enumerate(lengths)]
    monkeypatch.setattr(_NarrowLanes, "limit", count * m * len(lengths) * copies)
    monkeypatch.setattr(gridfec.channel, "_LANES", _NarrowLanes(_BLOCK_SLOTS))
    monkeypatch.setattr(gridfec.channel, "_Lanes", _NarrowLanes)
    master = 0xD1CE + len(lengths)
    trials = range(7, 7 + count)
    assert _trial_masks(master, trials, m, lengths, copies, _threshold(0.3)) == \
        reference_trial_masks(master, trials, m, lengths, copies, 0.3)


@pytest.mark.parametrize("cell", [(i, j) for i in range(3) for j in range(2)])
def test_arbitrate_matches_frozen_rule(cell):
    # Every pair of distinct words of each Ex 3.3.1 cell code, with their
    # syndromes passed in; adding a codeword to both copies adds it to the
    # result, which is what lets the trial loop arbitrate on error masks.
    code = parse_spec((FIXTURES / "ex_3_3_1.json").read_text()).cells[cell[0]][cell[1]]
    n = code.n
    assert n <= 7
    words = [BitVector(n, v) for v in range(1 << n)]
    syn = [code.syndrome(w).bits for w in words]
    codewords = sorted(w.bits for w in code.codewords)
    for a in range(1 << n):
        for b in range(1 << n):
            if a == b:
                continue
            kept = arbitrate(code, a, b, syn[a], syn[b])
            assert kept == reference_arbitrate(code, words[a], words[b]).bits, (a, b)
            x = codewords[(a + b) % len(codewords)]
            assert arbitrate(code, a ^ x, b ^ x, syn[a], syn[b]) == kept ^ x, (a, b, x)
