"""Property tests: the slot-parallel kernel draws the documented stream, and
run_trial tallies it as the frozen trial loop does.

run_trial draws a block of trials at once, one 64-bit slot per (trial, row,
column, copy) stream.  For any master seed, trial range, grid shape, column
lengths and p, each slot's mask must equal what the frozen pre-kernel pair
`reference_derive_seed` + `reference_bsc_corrupt` gives for that stream, and
`bsc_corrupt` (the same kernel with one slot) must equal the frozen copy for
any seed.  On any small grid, every strategy that accepts it must report
what `reference_run_trial` reports.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gridfec.channel import (  # noqa: E402
    STRATEGIES,
    ChannelConfig,
    _threshold,
    _trial_masks,
    bsc_corrupt,
    run_trial,
)
from gridfec.gf2 import BitMatrix, BitVector  # noqa: E402
from gridfec.grid import GridCode, GridCodeword  # noqa: E402
from gridfec.linear import LinearCode  # noqa: E402
from test_channel_equivalence import (  # noqa: E402
    reference_bsc_corrupt,
    reference_derive_seed,
    reference_run_trial,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1) | st.sampled_from([0, (1 << 64) - 1])
PROBABILITY = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seed=U64, first=st.integers(0, 1 << 40), count=st.integers(1, 3),
                  m=st.integers(1, 3), lengths=st.lists(st.integers(0, 300), min_size=1,
                                                        max_size=3),
                  copies=st.integers(1, 2), p=PROBABILITY)
def test_kernel_mask_matches_bsc_corrupt(seed, first, count, m, lengths, copies, p):
    trials = range(first, first + count)
    masks = _trial_masks(seed, trials, m, lengths, copies, _threshold(p))
    expected = [
        reference_bsc_corrupt(ChannelConfig(p, reference_derive_seed(seed, t, i, j, c)),
                              BitVector.zeros(length)).bits
        for t in trials for i in range(m) for j, length in enumerate(lengths)
        for c in range(copies)]
    assert masks == expected


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seed=U64, length=st.integers(0, 300), p=PROBABILITY)
def test_bsc_corrupt_matches_frozen(seed, length, p):
    cfg = ChannelConfig(p, seed)
    x = BitVector(length, (1 << length) // 3)  # alternating bits
    assert bsc_corrupt(cfg, x) == reference_bsc_corrupt(cfg, x)


@st.composite
def grids(draw):
    """A grid of at most 3 x 3 systematic codes, (A | I), of 2 to 8 bits, and
    a word of it.  Columns share a length and rows a check count; cells of
    one shape draw from two codes, so check matrices repeat across cells.  A
    uniform grid carries one codeword in every cell, so majority_vote
    accepts it."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(2, 8), min_size=n, max_size=n))
    checks = draw(st.lists(st.integers(1, min(lengths) - 1), min_size=m, max_size=m))
    pool = {}
    for r in set(checks):
        for length in set(lengths):
            k = length - r
            pool[r, length] = [
                LinearCode.from_parity(BitMatrix(r, length, tuple(
                    a | 1 << k + i for i, a in enumerate(draw(st.lists(
                        st.integers(0, (1 << k) - 1), min_size=r, max_size=r))))))
                for _ in range(2)]
    if draw(st.booleans()):
        code = pool[checks[0], lengths[0]][0]
        word = code.encode(BitVector(code.k, draw(st.integers(0, (1 << code.k) - 1))))
        return GridCode.uniform(code, m, n), GridCodeword.from_rows([[word] * n] * m)
    codes = [[draw(st.sampled_from(pool[r, length])) for length in lengths] for r in checks]
    grid = GridCode(codes)
    return grid, grid.encode([[BitVector(c.k, draw(st.integers(0, (1 << c.k) - 1)))
                               for c in row] for row in codes])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=grids(), seed=U64, trials=st.integers(1, 12), p=PROBABILITY)
def test_run_trial_matches_frozen_trial_loop(case, seed, trials, p):
    grid, sent = case
    x = sent.cells[0][0]
    votes = grid.is_uniform() and all(c == x for row in sent.cells for c in row)
    cfg = ChannelConfig(p, seed)
    for strategy in STRATEGIES:
        if strategy != "majority_vote" or votes:
            assert run_trial(grid, sent, strategy, cfg, trials) == \
                reference_run_trial(grid, sent, strategy, cfg, trials), strategy
