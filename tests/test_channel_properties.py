"""Property tests: the slot-parallel kernel draws the documented stream.

run_trial draws a block of trials at once, one 64-bit slot per (trial, row,
column, copy) stream.  For any master seed, trial range, grid shape, column
lengths and p, each slot's mask must equal what the frozen pre-kernel pair
`reference_derive_seed` + `reference_bsc_corrupt` gives for that stream, and
`bsc_corrupt` (the same kernel with one slot) must equal the frozen copy for
any seed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gridfec.channel import ChannelConfig, _threshold, _trial_masks, bsc_corrupt  # noqa: E402
from gridfec.gf2 import BitVector  # noqa: E402
from test_channel_equivalence import (  # noqa: E402
    reference_bsc_corrupt,
    reference_derive_seed,
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
