"""Deterministic binary-symmetric-channel simulation and strategy trials.

Randomness comes from an xorshift64* generator (shifts 12/25/27, then the
multiplication in `_flip_masks`) seeded through the splitmix64 finalizer, so
corrupted outputs are bit-identical across runs and platforms.  The stream of cell
(row, col) in copy `copy` of trial t is seeded by
`derive_seed(master, t, row, col, copy)`, which adds each index to the running
state and mixes, one index at a time; trial order is therefore irrelevant and
trials are safely parallelizable.

The streams are independent, so they are drawn side by side: one Python int
holds a 128-bit slot per stream, the 64-bit state in bits 0-63 and a guard
in bit 64, and each shift, mask and multiplication of the generator acts on
every slot at once (SIMD within a register).  `run_trial` puts stream
(t, i, j, c) of a block of trials in slot ((t * m + i) * n + j) * copies + c;
`bsc_corrupt` is the same kernel with one slot.  The stream each cell sees,
and so every simulated count, is that of the one-stream-at-a-time loop.

Because the first fold sees only master + t, trial t of master seed s + 1
draws exactly the streams of trial t + 1 of seed s: runs of N trials at seeds
s and s + 1 share N - 1 trials.  Space the master seeds of runs meant to be
independent at least their trial count apart.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Sequence

from .gf2 import BitVector, Gf2Error, Value, _set, mat_vec_bits
from .grid import GridCode, GridCodeword, arbitrate, vote
from .linear import CodeError

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SLOT_BYTES = 16  # a 64-bit value, guard bit 64, and room for a 128-bit product
_BLOCK_SLOTS = 8192  # streams drawn per kernel call: 128 KiB per slot int

STRATEGIES = ("per_cell_decode", "majority_vote", "simultaneous")


class ChannelError(CodeError):
    """Raised on invalid channel configuration or simulation input; a CodeError,
    so that callers that never load this module can still catch it."""


class ChannelConfig(Value):
    """A BSC flip probability and a 64-bit master seed."""

    __slots__ = ("flip_probability", "seed")
    flip_probability: float
    seed: int

    def __init__(self, flip_probability: float, seed: int = 0) -> None:
        if not 0.0 <= flip_probability <= 1.0:
            raise ChannelError(f"flip probability {flip_probability} not in [0, 1]")
        if not 0 <= seed <= _M64:
            raise ChannelError("seed must fit in 64 bits")
        _set(self, "flip_probability", flip_probability)
        _set(self, "seed", seed)


class TrialReport(Value):
    __slots__ = ("trials", "decode_success", "undetected_error", "residual_bit_errors")
    trials: int
    decode_success: int
    undetected_error: int
    residual_bit_errors: int

    def __init__(self, trials: int, decode_success: int, undetected_error: int,
                 residual_bit_errors: int) -> None:
        _set(self, "trials", trials)
        _set(self, "decode_success", decode_success)
        _set(self, "undetected_error", undetected_error)
        _set(self, "residual_bit_errors", residual_bit_errors)

    @property
    def failures(self) -> int:
        return self.trials - self.decode_success


def _mix64(z: int, lanes: int = _M64) -> int:
    """splitmix64 finalizer of a word, or of every slot of a slot int.

    `lanes` is `_M64` for one word, or `_slots((_M64,), count)` to mix the
    64-bit values of `count` slots at once.
    """
    z &= lanes
    z = (z ^ z >> 30 & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = (z ^ z >> 27 & lanes) * 0x94D049BB133111EB & lanes
    return z ^ z >> 31 & lanes


def derive_seed(master: int, *indices: int) -> int:
    """Fold trial/cell indices into the master seed: add each index, then mix."""
    state = master & _M64
    for v in indices:
        state = _mix64(state + _GAMMA + v)
    return state


def _slots(pattern: Iterable[int], repeats: int) -> int:
    """A slot int holding the words of `pattern`, one per slot, `repeats` times over."""
    image = b"".join(w.to_bytes(_SLOT_BYTES, "little") for w in pattern)
    return int.from_bytes(image * repeats, "little")


def _flip_masks(seeds: int, lengths: Sequence[int], repeats: int, threshold: int,
                lanes: int) -> list[int]:
    """The flip masks of many xorshift64* streams, all drawn at once.

    Slot k of the slot int `seeds` holds a stream seed; with L = len(lengths),
    mask k has bit d set iff draw d < lengths[k % L] of that stream is below
    `threshold`, for k < L * repeats.  `lanes` holds `_M64` in each of those
    slots; callers pass the one they already hold.  Every slot advances by
    the same shifts, masks and one multiplication, so each mask is bit for
    bit the scalar stream's.  A draw is at or above the threshold iff adding
    2**64 - threshold carries into the slot's guard bit 64, so a clear guard
    bit is a flip; at p = 1, where the threshold is 2**64, nothing carries.
    """
    slots = len(lengths) * repeats
    ones = _slots((1,), slots)
    guard = ones << 64
    bound = ones * ((1 << 64) - threshold)
    s = _mix64(seeds, lanes)
    # A zero state would stay zero: such a stream starts at _GAMMA instead.
    zero = guard ^ (s + lanes) & guard
    if zero:
        s |= (zero >> 64) * _GAMMA
    longest = max(lengths, default=0)
    uneven = any(n != longest for n in lengths)
    images = []  # per chunk of 128 draws, every slot's 16 mask bytes
    for base in range(0, longest, 128):
        draws = min(128, longest - base)
        kept = 0  # bit d of a slot: draw base + d did not flip
        for d in range(draws):
            s ^= s >> 12 & lanes
            s ^= s << 25 & lanes
            s ^= s >> 27 & lanes
            above = (s * 0x2545F4914F6CDD1D & lanes) + bound & guard
            kept |= above >> 64 - d if d < 64 else above << d - 64
        flips = ones * ((1 << draws) - 1) ^ kept
        if uneven:  # only the draws each slot's length asks for
            flips &= _slots(((1 << min(max(n - base, 0), 128)) - 1 for n in lengths), repeats)
        images.append(flips.to_bytes(_SLOT_BYTES * slots, "little"))
    if 0 < longest <= 64:
        return list(struct.unpack(f"<{2 * slots}Q", images[0])[0::2])
    # A slot's mask is its chunks in draw order, joined once.
    return [int.from_bytes(b"".join(image[k:k + _SLOT_BYTES] for image in images), "little")
            for k in range(0, _SLOT_BYTES * slots, _SLOT_BYTES)]


def _trial_masks(master: int, trials: range, m: int, lengths: Sequence[int], copies: int,
                 threshold: int) -> list[int]:
    """The flip masks of `trials` on an m-row grid with these column lengths.

    Slot ((r * m + i) * n + j) * copies + c holds the stream of
    derive_seed(master, trials[r], i, j, c), so its mask is that of
    `bsc_corrupt` seeded by it.  Every fold runs on slot ints: the trial
    fold on one slot per trial, the row fold on one per (trial, row), and
    the column and copy folds on all slots at once.
    """
    seeds, lanes = _trial_seeds(master, trials, m, len(lengths), copies)
    return _flip_masks(seeds, [length for length in lengths for _ in range(copies)],
                       len(trials) * m, threshold, lanes)


def _low_words(values: int, count: int) -> array:
    """Bits 0-63 of the first `count` slots of a slot int, as 8-byte words of
    its little-endian image."""
    return array("Q", values.to_bytes(_SLOT_BYTES * count, "little"))[0::2]


def _repeat_slots(words: array, repeats: int) -> int:
    """The slot int holding each word of `words` in `repeats` slots in a row.

    The array copies each word's 8 bytes as they are, so the words must be
    bytes of a little-endian image, whatever the platform's byte order; the
    high 8 bytes of every slot stay zero.
    """
    out = array("Q", bytes(_SLOT_BYTES * len(words) * repeats))
    step = 2 * repeats
    for k in range(0, step, 2):
        out[k::step] = words
    return int.from_bytes(out.tobytes(), "little")


def _trial_seeds(master: int, trials: range, m: int, n: int, copies: int) -> tuple[int, int]:
    """The slot int of `_trial_masks`' stream seeds, and the `lanes` slot int
    of its folds, which the draw reuses; its other block-sized temporaries
    are freed on return, before the draw."""
    count = len(trials)
    rows = count * m
    width = n * copies
    # Each fold adds its index to the state, then mixes; master + _GAMMA + t < 2**66.
    trial_ramp = _repeat_slots(array("Q", struct.pack(f"<{count}Q", *trials)), 1)
    trial_seeds = _mix64(trial_ramp + _slots((master + _GAMMA,), count), _slots((_M64,), count))
    row_ramp = _slots((_GAMMA + i for i in range(m)), count)
    row_seeds = _mix64(_repeat_slots(_low_words(trial_seeds, count), m) + row_ramp,
                       _slots((_M64,), rows))
    col_ramp = _slots((_GAMMA + j for j in range(n) for _ in range(copies)), rows)
    copy_ramp = _slots((_GAMMA + c for _ in range(n) for c in range(copies)), rows)
    lanes = _slots((_M64,), rows * width)
    seeds = _mix64(_repeat_slots(_low_words(row_seeds, rows), width) + col_ramp, lanes)
    return _mix64(seeds + copy_ramp, lanes), lanes


def _threshold(p: float) -> int:
    """The draw bound for flip probability p: a 64-bit draw below it flips its bit."""
    return int(p * (1 << 64))


def bsc_corrupt(cfg: ChannelConfig, x: BitVector) -> BitVector:
    """Flip each bit independently with probability p; fully seed-determined."""
    (mask,) = _flip_masks(cfg.seed, (x.length,), 1, _threshold(cfg.flip_probability), _M64)
    return BitVector(x.length, x.bits ^ mask)


def inject_errors(x: BitVector, positions: Iterable[int]) -> BitVector:
    """Flip exactly the given distinct positions."""
    seen = set()
    for p in positions:
        if p in seen:
            raise Gf2Error(f"duplicate error position {p}")
        seen.add(p)
    return x.with_flipped(seen)


class _Syndromes(dict):
    """Syndromes by error mask under one check matrix, each computed once."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]) -> None:
        super().__init__()
        self.rows = rows

    def __missing__(self, error: int) -> int:
        syndrome = self[error] = mat_vec_bits(self.rows, error)
        return syndrome


def run_trial(grid: GridCode, sent: GridCodeword, strategy: str,
              cfg: ChannelConfig, trials: int) -> TrialReport:
    """Corrupt every cell per trial, apply the strategy, tally recoveries.

    The strategy is chosen once, before any trial: it checks its input and
    gives `outcome(errors) -> (bits_left, hidden)` over one trial's flip masks.
    A trial succeeds iff it leaves no bit error; decode_success counts those
    trials, residual_bit_errors sums the bits left, and undetected_error counts
    trials where some received cell was a valid codeword other than the sent one.

    Trials are drawn in blocks of at most _BLOCK_SLOTS cell streams by
    `_trial_masks`, so memory does not grow with `trials`; the masks are
    exactly those of `bsc_corrupt` seeded by `derive_seed(cfg.seed, t, i, j,
    copy)`, so the report is the same as with one derivation per cell.

    Each distinct check matrix gets one syndrome memo per block, which the
    per-cell decode, the undetected-error check and the simultaneous
    strategy read, so a mask that recurs within the block has its syndrome
    computed once.  The simultaneous strategy skips untouched cells, reads
    one syndrome where both copies agree and passes both copies' syndromes
    to `arbitrate` where they differ, on the error masks themselves.  The
    memos are emptied with the block's masks, so they too stay within the
    block size.

    Majority vote looks up the syndromes of struck cells only, and calls
    `vote` only when untouched cells are not a strict majority: when they
    are, the sent value has the unique top count, so the vote returns it.
    """
    if strategy not in STRATEGIES:
        raise ChannelError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if trials < 1:
        raise ChannelError("need at least one trial")
    if not grid.is_member(sent):
        raise ChannelError("the sent word is not a member of the grid code")
    if any(c is None for row in sent.cells for c in row):
        raise ChannelError("simulation requires every cell present")

    copies = 2 if strategy == "simultaneous" else 1
    lengths = grid.column_lengths()
    codes = [code for row in grid.cells for code in row]
    # One syndrome memo per distinct check matrix, and the memo of each cell.
    keys = [code.h.row_words for code in codes]
    memos = {rows: _Syndromes(rows) for rows in dict.fromkeys(keys)}
    syndromes = [memos[rows] for rows in keys]
    # The sent word is a codeword, so a received cell's syndrome is that of its
    # flip mask, and an untouched cell (mask 0) needs none.  A nonzero error
    # with a zero syndrome turns the cell into another codeword.
    if strategy == "per_cell_decode":
        # Each cell's own coset leaders, walked lazily: a lookup walks no support
        # heavier than its error, and past the walk's budget CapacityError ends the run.
        tables = [code.leader_bits for code in codes]

        def outcome(errors: list[int]) -> tuple[int, bool]:
            # A cell keeps the bits where its error and its coset leader differ.
            left = 0
            hidden = False
            for e, syndrome_of, table in zip(errors, syndromes, tables):
                if e:
                    syndrome = syndrome_of[e]
                    hidden = hidden or not syndrome
                    left += (e ^ table[syndrome]).bit_count()
            return left, hidden
    elif strategy == "majority_vote":
        if not grid.is_uniform():
            raise ChannelError("majority_vote requires a uniform grid")
        x = sent.cells[0][0].bits
        if any(c.bits != x for row in sent.cells for c in row):
            raise ChannelError("majority_vote expects the same codeword in every cell")

        (syndrome_of,) = memos.values()
        cells = len(codes)

        def outcome(errors: list[int]) -> tuple[int, bool]:
            hidden = not all(map(syndrome_of.__getitem__, filter(None, errors)))
            # More untouched cells than struck ones are a unique top count for x,
            # which is all `vote` could return.
            if 2 * errors.count(0) > cells:
                return 0, hidden
            return (vote(codes[0], [x ^ e for e in errors]) ^ x).bit_count(), hidden
    else:
        def outcome(errors: list[int]) -> tuple[int, bool]:
            # A cell both copies' errors agree on passes through; the others are
            # arbitrated on the errors, which gives the error kept.
            left = 0
            hidden = False
            for code, syndrome_of, ea, eb in zip(codes, syndromes, errors[0::2], errors[1::2]):
                if ea == eb:
                    if ea:
                        hidden = hidden or not syndrome_of[ea]
                        left += ea.bit_count()
                    continue
                sa = ea and syndrome_of[ea]
                sb = eb and syndrome_of[eb]
                hidden = hidden or (ea and not sa) or (eb and not sb)
                left += arbitrate(code, ea, eb, sa, sb).bit_count()
            return left, hidden

    successes = undetected = residual = 0
    threshold = _threshold(cfg.flip_probability)
    slots = len(codes) * copies
    block = max(1, _BLOCK_SLOTS // slots)
    for start in range(0, trials, block):
        masks = _trial_masks(cfg.seed, range(start, min(start + block, trials)), grid.m,
                             lengths, copies, threshold)
        for k in range(0, len(masks), slots):
            left, hidden = outcome(masks[k:k + slots])
            residual += left
            successes += not left
            undetected += hidden
        # The memos keep the block's masks as keys: empty them and free the masks
        # before the next block is drawn.
        for memo in memos.values():
            memo.clear()
        del masks
    return TrialReport(trials, successes, undetected, residual)
