"""Deterministic binary-symmetric-channel simulation and strategy trials.

Randomness comes from an xorshift64* generator (shifts 12/25/27, then the
multiplication in `_flip_masks`) seeded through the splitmix64 finalizer, so
corrupted outputs are bit-identical across runs and platforms.  The stream of cell
(row, col) in copy `copy` of trial t is seeded by
`derive_seed(master, t, row, col, copy)`, which adds each index to the running
state and mixes, one index at a time; trial order is therefore irrelevant and
trials are safely parallelizable.

The streams are independent, so they are drawn side by side: one "dense"
Python int holds a 64-bit slot per stream, stream k in bits 64k to 64k + 63,
and each step of the generator acts on every slot at once (SIMD within a
register).  Shifts are masked to their slots, and adds and multiplications
are split so that no carry or product reaches the next slot (`_LANES`, whose
masks are built once, at import, `_BLOCK_SLOTS` slots wide).
`run_trial` puts stream (t, i, j, c) of a block of trials in slot
((t * m + i) * n + j) * copies + c; `bsc_corrupt` is the same kernel with
one slot.  The stream each cell sees, and so every simulated count, is that
of the one-stream-at-a-time loop.

Because the first fold sees only master + t, trial t of master seed s + 1
draws exactly the streams of trial t + 1 of seed s: runs of N trials at seeds
s and s + 1 share N - 1 trials.  Space the master seeds of runs meant to be
independent at least their trial count apart.
"""

from __future__ import annotations

import struct
from array import array
from functools import partial
from itertools import cycle, repeat
from operator import and_
from typing import Callable, Iterable, Iterator, Sequence

from .gf2 import BitVector, Gf2Error, Value, _set, mat_vec_bits
from .grid import GridCode, GridCodeword, arbitrate, vote
from .linear import CodeError

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SLOT_BYTES = 8  # one 64-bit value per slot; sums and products spill into the next
_BLOCK_SLOTS = 8192  # streams drawn per kernel call: 64 KiB per slot int

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


class _Lanes:
    """The constants of a dense int of up to `slots` 64-bit slots.

    A shift is masked to the low bits of every slot (`low`): after a right
    shift, before a left one.  A 64 x 64-bit product spills into the next
    slot, so `times` multiplies the even and the odd slots apart: each spill
    lands in a slot that is zero in that operand.  The masks are only and-ed
    with the int, which cuts them to its slots, so the lanes of `slots` serve
    every narrower int; `ones` must be cut where something is built from it.
    """

    __slots__ = ("even", "odd", "ones", "low")

    def __init__(self, slots: int) -> None:
        pairs = (b"\xff" * _SLOT_BYTES + bytes(_SLOT_BYTES)) * (slots + 1 >> 1)
        self.even = even = int.from_bytes(pairs[:_SLOT_BYTES * slots], "little")
        self.odd = odd = (1 << 64 * slots) - 1 ^ even
        self.ones = ones = even >> 63 & even | odd >> 63 & odd
        # low[b]: the low b bits of every slot; low[39] >> k keeps none of the next slot's.
        self.low = low = {b: (ones << b) - ones for b in (39, 52, 63)}
        low.update({b: low[39] >> 39 - b & low[39] for b in (33, 34, 37)})

    def times(self, z: int, c: int) -> int:
        """Every slot of z times the 64-bit constant c, modulo 2**64."""
        e = z & self.even
        return e * c & self.even | (z ^ e) * c & self.odd

    def plus(self, z: int, y: int) -> int:
        """The slotwise sum of z and y, modulo 2**64: bit 63 of each slot is
        the carry of the low 63 bits' sum, xor both bits 63."""
        low = self.low[63]
        x = z ^ y
        return (z & low) + (y & low) ^ x ^ x & low


_LANES = _Lanes(_BLOCK_SLOTS)  # every kernel call's, bar a trial wider than a block


def _mix64(z: int, lanes: _Lanes = _LANES) -> int:
    """splitmix64 finalizer of a 64-bit word, or of every slot of a dense int."""
    low = lanes.low
    z = lanes.times(z ^ z >> 30 & low[34], 0xBF58476D1CE4E5B9)
    z = lanes.times(z ^ z >> 27 & low[37], 0x94D049BB133111EB)
    return z ^ z >> 31 & low[33]


def derive_seed(master: int, *indices: int) -> int:
    """Fold trial/cell indices into the master seed: add each index, then mix."""
    state = master & _M64
    for v in indices:
        state = _mix64(state + _GAMMA + v & _M64)
    return state


def _dense(words: Sequence[int], repeats: int = 1) -> int:
    """The dense int holding `words`, one per slot, `repeats` times over."""
    return int.from_bytes(struct.pack(f"<{len(words)}Q", *words) * repeats, "little")


def _flip_masks(seeds: int, lengths: Sequence[int], repeats: int, threshold: int,
                lanes: _Lanes) -> list[int]:
    """The flip masks of many xorshift64* streams, all drawn at once.

    Slot k of the dense int `seeds` holds a stream seed; with L = len(lengths),
    mask k has bit d set iff draw d < lengths[k % L] of that stream is below
    `threshold`, for k < L * repeats; `lanes` may have more slots.  Every slot
    advances by the same masked shifts and split multiplication, so each
    mask is bit for bit the scalar stream's.
    """
    slots = len(lengths) * repeats
    # `ones` and the added low[63] are cut to exactly the masks' slots.
    cut = (1 << 64 * slots) - 1
    ones, low = lanes.ones & cut, lanes.low
    low63 = low[63] & cut
    top = ones << 63
    s = _mix64(seeds, lanes)
    # A zero state would stay zero: such a stream starts at _GAMMA instead.
    nonzero = (s & low63) + low63 | s
    if nonzero & top != top:
        s |= ((top ^ nonzero & top) >> 63) * _GAMMA
    # A draw flips iff it plus 2**64 - threshold carries out of no slot: the
    # low 63 bits' carry, or-ed with the draw's bit 63 if the bound has bit 63
    # and and-ed if not.  Draws are nonzero, so threshold 0 acts as 1.
    bound = (1 << 64) - max(threshold, 1)
    bound_low = ones * (bound & low63)
    longest = max(lengths, default=0)
    uneven = any(n != longest for n in lengths)
    images = []  # per chunk of 64 draws, every slot's 8 mask bytes
    for base in range(0, longest, 64):
        draws = min(64, longest - base)
        kept = 0  # bit d of a slot: draw base + d did not flip
        for d in range(draws):
            s ^= s >> 12 & low[52]
            s ^= (s & low[39]) << 25
            s ^= s >> 27 & low[37]
            draw = lanes.times(s, 0x2545F4914F6CDD1D)
            below = (draw & low63) + bound_low
            kept |= ((below | draw if bound >> 63 else below & draw) & top) >> 63 - d
        # Only the draws each slot's length asks for.
        wanted = _dense([(1 << min(max(n - base, 0), 64)) - 1 for n in lengths], repeats) \
            if uneven else ones * ((1 << draws) - 1)
        images.append((wanted ^ kept & wanted).to_bytes(_SLOT_BYTES * slots, "little"))
    if 0 < longest <= 64:
        return list(struct.unpack(f"<{slots}Q", images[0]))
    # A slot's mask is its chunks in draw order, joined once.
    return [int.from_bytes(b"".join(image[k:k + _SLOT_BYTES] for image in images), "little")
            for k in range(0, _SLOT_BYTES * slots, _SLOT_BYTES)]


def _repeat_slots(z: int, count: int, repeats: int) -> int:
    """The dense int holding each of the `count` slots of `z` in `repeats` slots in a row;
    the arrays only copy 8-byte words of a little-endian image, whatever the byte order."""
    if repeats == 1:
        return z
    words = array("Q", z.to_bytes(_SLOT_BYTES * count, "little"))
    out = array("Q", bytes(_SLOT_BYTES * count * repeats))
    for k in range(repeats):
        out[k::repeats] = words
    return int.from_bytes(out.tobytes(), "little")


def _trial_masks(master: int, trials: range, m: int, lengths: Sequence[int], copies: int,
                 threshold: int) -> list[int]:
    """The flip masks of `trials` on an m-row grid with these column lengths.

    Slot ((r * m + i) * n + j) * copies + c holds the stream of
    derive_seed(master, trials[r], i, j, c), so its mask is that of
    `bsc_corrupt` seeded by it.  Each fold repeats every slot of the state
    once per value of its index, adds _GAMMA + index and mixes, on as many
    slots of the lanes as it has; a trial wider than `_LANES` builds its own.
    """
    count = len(trials)
    total = count * m * len(lengths) * copies
    lanes = _LANES if total <= _BLOCK_SLOTS else _Lanes(total)
    seeds = _mix64(lanes.plus(_dense([master + _GAMMA & _M64], count), _dense(trials)), lanes)
    slots = count
    for size in (m, len(lengths), copies):
        seeds = _mix64(lanes.plus(_repeat_slots(seeds, slots, size),
                                  _dense(range(_GAMMA, _GAMMA + size), slots)), lanes)
        slots *= size
    return _flip_masks(seeds, [length for length in lengths for _ in range(copies)],
                       count * m, threshold, lanes)


def _threshold(p: float) -> int:
    """The draw bound for flip probability p: a 64-bit draw below it flips its bit."""
    return int(p * (1 << 64))


def bsc_corrupt(cfg: ChannelConfig, x: BitVector) -> BitVector:
    """Flip each bit independently with probability p; fully seed-determined."""
    (mask,) = _flip_masks(cfg.seed, (x.length,), 1, _threshold(cfg.flip_probability), _LANES)
    return BitVector(x.length, x.bits ^ mask)


def inject_errors(x: BitVector, positions: Iterable[int]) -> BitVector:
    """Flip exactly the given distinct positions."""
    seen = set()
    for p in positions:
        if p in seen:
            raise Gf2Error(f"duplicate error position {p}")
        seen.add(p)
    return x.with_flipped(seen)


class _Memo(dict):
    """The value of `rule` at each key, computed once, on the key's first lookup."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable[[int], int]) -> None:
        super().__init__()
        self.rule = rule

    def __missing__(self, key: int) -> int:
        value = self[key] = self.rule(key)
        return value


def run_trial(grid: GridCode, sent: GridCodeword, strategy: str,
              cfg: ChannelConfig, trials: int) -> TrialReport:
    """Corrupt every cell per trial, apply the strategy, tally recoveries.

    The strategy, chosen once, checks its input and gives its memo rule,
    `values(masks)`, a value per cell stream of a block of flip masks, and
    `outcome`, one trial's values packed: the bits the trial leaves, plus a
    nonzero multiple of `unit` (a power of two above them) iff some received
    cell was a codeword other than the sent one.  One `zip` splits every
    block of at most _BLOCK_SLOTS streams from `_trial_masks` (the masks of
    `bsc_corrupt` seeded by `derive_seed(cfg.seed, t, i, j, copy)`) into
    trials; the tally reads their outcomes in C, a trial succeeds iff it
    leaves no bit error, and the block's memos are emptied with it.
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
    slots = len(codes) * copies
    unit = 1 << (len(codes) * max(lengths)).bit_length()

    def decode(rows: tuple[int, ...], leaders: dict[int, int], e: int) -> int:
        """Error mask e in a cell with check rows `rows`: the bits the cell keeps,
        where e and its coset leader differ, plus `unit` if e is a nonzero codeword."""
        syndrome = mat_vec_bits(rows, e)
        return (e ^ leaders[syndrome]).bit_count() + (unit if e and not syndrome else 0)

    # The sent word is a codeword, so a received cell's syndrome is that of its
    # flip mask, and an untouched cell (mask 0) needs none.  A nonzero error
    # with a zero syndrome turns the cell into another codeword.  Each distinct
    # check matrix has one memo keyed by mask, and `cells` holds each cell's:
    # per-cell decoding memoizes the coset-decode outcome, whose leaders are
    # walked lazily (a lookup walks no support heavier than its error, and past
    # the walk's budget CapacityError ends the run); vote and reconcile memoize
    # the syndrome.
    memos: dict[tuple[int, ...], _Memo] = {}
    for code in codes:
        if (rows := code.h.row_words) not in memos:
            memos[rows] = _Memo(partial(decode, rows, code.leader_bits)
                                if strategy == "per_cell_decode" else partial(mat_vec_bits, rows))
    cells = [memos[code.h.row_words] for code in codes]
    values: Callable[[list[int]], Iterator[int]] = iter  # vote and reconcile read the masks
    if strategy == "per_cell_decode":
        def values(masks: list[int]) -> Iterator[int]:
            # A fresh cycle per block, since map draws one cell past the last mask.
            return map(dict.__getitem__, cycle(cells), masks)

        outcome: Callable[[tuple[int, ...]], int] = sum
    elif strategy == "majority_vote":
        if not grid.is_uniform():
            raise ChannelError("majority_vote requires a uniform grid")
        x = sent.cells[0][0].bits
        if any(c.bits != x for row in sent.cells for c in row):
            raise ChannelError("majority_vote expects the same codeword in every cell")

        # A uniform grid has one check matrix: one syndrome memo.
        syndrome_of = cells[0]
        count = len(codes)

        def outcome(errors: tuple[int, ...]) -> int:
            hidden = 0 if all(map(syndrome_of.__getitem__, filter(None, errors))) else unit
            # More untouched cells than struck ones are a unique top count for x,
            # which is all `vote` could return.
            if 2 * errors.count(0) > count:
                return hidden
            return (vote(codes[0], [x ^ e for e in errors]) ^ x).bit_count() + hidden
    else:
        def outcome(errors: tuple[int, ...]) -> int:
            # A cell both copies' errors agree on passes through; the others are
            # arbitrated on the errors, which gives the error kept.
            left = 0
            hidden = False
            for code, syndrome_of, ea, eb in zip(codes, cells, errors[0::2], errors[1::2]):
                if ea == eb:
                    if ea:
                        hidden = hidden or not syndrome_of[ea]
                        left += ea.bit_count()
                    continue
                sa = ea and syndrome_of[ea]
                sb = eb and syndrome_of[eb]
                hidden = hidden or (ea and not sa) or (eb and not sb)
                left += arbitrate(code, ea, eb, sa, sb).bit_count()
            return left + unit if hidden else left

    successes = undetected = residual = 0
    threshold = _threshold(cfg.flip_probability)
    block = max(1, _BLOCK_SLOTS // slots)
    for start in range(0, trials, block):
        masks = _trial_masks(cfg.seed, range(start, min(start + block, trials)), grid.m,
                             lengths, copies, threshold)
        # One iterator zipped `slots` times over hands out each trial's values.
        packed = list(map(outcome, zip(*[values(masks)] * slots)))
        lefts = list(map(and_, packed, repeat(unit - 1)))
        residual += sum(lefts)
        successes += lefts.count(0)
        undetected += sum(map(unit.__le__, packed))
        # The memos keep the block's masks as keys: empty them and free the masks
        # before the next block is drawn.
        for memo in memos.values():
            memo.clear()
        del masks
    return TrialReport(trials, successes, undetected, residual)
