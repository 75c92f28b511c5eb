"""Deterministic binary-symmetric-channel simulation and strategy trials.

Randomness comes from an xorshift64* generator (shifts 12/25/27, multiplier
0x2545F4914F6CDD1D) seeded through the splitmix64 finalizer, so corrupted
outputs are bit-identical across runs and platforms.  The stream of cell
(row, col) in copy `copy` of trial t is seeded by
`derive_seed(master, t, row, col, copy)`, which adds each index to the running
state and mixes, one index at a time; trial order is therefore irrelevant and
trials are safely parallelizable.

Because the first fold sees only master + t, trial t of master seed s + 1
draws exactly the streams of trial t + 1 of seed s: runs of N trials at seeds
s and s + 1 share N - 1 trials.  Space the master seeds of runs meant to be
independent at least their trial count apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gf2 import BitVector, Gf2Error, mat_vec_bits
from .grid import GridCode, GridCodeword, arbitrate, vote

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

STRATEGIES = ("per_cell_decode", "majority_vote", "simultaneous")


class ChannelError(ValueError):
    """Raised on invalid channel configuration or simulation input."""


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """A BSC flip probability and a 64-bit master seed."""

    flip_probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ChannelError(f"flip probability {self.flip_probability} not in [0, 1]")
        if not 0 <= self.seed <= _M64:
            raise ChannelError("seed must fit in 64 bits")


@dataclass(frozen=True, slots=True)
class TrialReport:
    trials: int
    decode_success: int
    undetected_error: int
    residual_bit_errors: int

    @property
    def failures(self) -> int:
        return self.trials - self.decode_success


def _mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _fold(state: int, index: int) -> int:
    """One step of the seed derivation: add the index, then mix."""
    return _mix64((state + _GAMMA + index) & _M64)


def derive_seed(master: int, *indices: int) -> int:
    """Fold trial/cell indices into the master seed, one mix step each."""
    state = master & _M64
    for v in indices:
        state = _fold(state, v)
    return state


def _flip_mask(seed: int, length: int, threshold: int) -> int:
    """The xorshift64* stream of `seed` as a mask: bit i set iff draw i < threshold."""
    state = _mix64(seed) or _GAMMA
    mask = 0
    for i in range(length):
        state ^= state >> 12
        state = (state ^ (state << 25)) & _M64
        state ^= state >> 27
        if (state * 0x2545F4914F6CDD1D) & _M64 < threshold:
            mask |= 1 << i
    return mask


def _threshold(p: float) -> int:
    """The draw bound for flip probability p: a 64-bit draw below it flips its bit."""
    return int(p * (1 << 64))


def bsc_corrupt(cfg: ChannelConfig, x: BitVector) -> BitVector:
    """Flip each bit independently with probability p; fully seed-determined."""
    mask = _flip_mask(cfg.seed, x.length, _threshold(cfg.flip_probability))
    return BitVector(x.length, x.bits ^ mask)


def inject_errors(x: BitVector, positions: Iterable[int]) -> BitVector:
    """Flip exactly the given distinct positions."""
    seen = set()
    for p in positions:
        if p in seen:
            raise Gf2Error(f"duplicate error position {p}")
        seen.add(p)
    return x.with_flipped(seen)


def run_trial(grid: GridCode, sent: GridCodeword, strategy: str,
              cfg: ChannelConfig, trials: int) -> TrialReport:
    """Corrupt every cell per trial, apply the strategy, tally recoveries.

    decode_success counts exact recoveries; undetected_error counts trials
    where some received cell was a valid codeword other than the sent one;
    residual_bit_errors sums the bit errors left after decoding.

    The seed prefix is folded once per trial, once per row and once per cell,
    and each copy's flip mask is drawn from that cell prefix; the masks are
    exactly those of `bsc_corrupt` seeded by `derive_seed(cfg.seed, t, i, j,
    copy)`, so the report is the same as with one derivation per cell.
    """
    if strategy not in STRATEGIES:
        raise ChannelError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if trials < 1:
        raise ChannelError("need at least one trial")
    if not grid.is_member(sent):
        raise ChannelError("the sent word is not a member of the grid code")
    if any(c is None for row in sent.cells for c in row):
        raise ChannelError("simulation requires every cell present")
    if strategy == "majority_vote":
        if not grid.is_uniform():
            raise ChannelError("majority_vote requires a uniform grid")
        first = sent.cells[0][0]
        if any(c != first for row in sent.cells for c in row):
            raise ChannelError("majority_vote expects the same codeword in every cell")

    lengths = grid.column_lengths()
    sent_bits = [[c.bits for c in row] for row in sent.cells]
    checks = [[code.h.row_words for code in row] for row in grid.cells]
    threshold = _threshold(cfg.flip_probability)
    copies = 2 if strategy == "simultaneous" else 1
    if strategy == "per_cell_decode":
        # Each cell's own coset table, built (or refused by its guard) before any trial.
        tables = [[code.leader_bits for code in row] for row in grid.cells]

    successes = 0
    undetected = 0
    residual = 0
    for t in range(trials):
        trial_seed = _fold(cfg.seed, t)
        cell_seeds = []
        for i in range(grid.m):
            row_seed = _fold(trial_seed, i)
            cell_seeds.append([_fold(row_seed, j) for j in range(grid.n)])
        # errors[copy][i][j] is the flip mask of cell (i, j) in that copy.
        errors = [[[_flip_mask(_fold(seed, copy), lengths[j], threshold)
                    for j, seed in enumerate(row)] for row in cell_seeds]
                  for copy in range(copies)]

        # The sent word is a codeword, so a received cell's syndrome is that of
        # its flip mask, and an untouched cell (mask 0) needs none.
        if strategy == "per_cell_decode":
            # Decoding succeeds in a cell iff its coset leader is the error itself.
            ok = True
            hidden = False
            for i, row in enumerate(errors[0]):
                for j, e in enumerate(row):
                    if e:
                        syndrome = mat_vec_bits(checks[i][j], e)
                        hidden = hidden or not syndrome
                        leader = tables[i][j][syndrome]
                        residual += (e ^ leader).bit_count()
                        ok = ok and e == leader
        else:
            # A nonzero error with a zero syndrome turns the cell into another codeword.
            hidden = any(e and not mat_vec_bits(checks[i][j], e)
                         for word in errors
                         for i, row in enumerate(word) for j, e in enumerate(row))
            if strategy == "majority_vote":
                x = sent_bits[0][0]
                winner = vote(grid.cells[0][0], [x ^ e for row in errors[0] for e in row])
                ok = winner == x
                residual += (winner ^ x).bit_count()
            else:
                # A cell both copies agree on passes through; others are arbitrated.
                ok = True
                for i, (row_a, row_b) in enumerate(zip(*errors)):
                    for j, (ea, eb) in enumerate(zip(row_a, row_b)):
                        x = sent_bits[i][j]
                        e = ea if ea == eb else arbitrate(grid.cells[i][j], x ^ ea, x ^ eb) ^ x
                        residual += e.bit_count()
                        ok = ok and not e
        if hidden:
            undetected += 1
        if ok:
            successes += 1
    return TrialReport(trials, successes, undetected, residual)
