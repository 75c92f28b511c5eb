"""Property test: the prefix-folded trial kernel draws the documented stream.

run_trial folds the seed once per trial, row and cell and reads each cell's
flip mask straight from the generator.  For any indices, length and p that
mask must equal what the public pair `derive_seed` + `bsc_corrupt` gives,
and what the frozen pre-kernel copies of that pair give.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gridfec.channel import (  # noqa: E402
    ChannelConfig,
    _flip_mask,
    _fold,
    _threshold,
    bsc_corrupt,
    derive_seed,
)
from gridfec.gf2 import BitVector  # noqa: E402
from test_channel_equivalence import (  # noqa: E402
    reference_bsc_corrupt,
    reference_derive_seed,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seed=U64, t=st.integers(0, 1 << 40), i=st.integers(0, 255),
                  j=st.integers(0, 255), copy=st.integers(0, 1),
                  length=st.integers(0, 64), p=st.floats(0.0, 1.0))
def test_kernel_mask_matches_bsc_corrupt(seed, t, i, j, copy, length, p):
    cell_seed = _fold(_fold(_fold(seed, t), i), j)
    mask = _flip_mask(_fold(cell_seed, copy), length, _threshold(p))
    zeros = BitVector.zeros(length)
    cfg = ChannelConfig(p, derive_seed(seed, t, i, j, copy))
    assert mask == bsc_corrupt(cfg, zeros).bits
    frozen = ChannelConfig(p, reference_derive_seed(seed, t, i, j, copy))
    assert mask == reference_bsc_corrupt(frozen, zeros).bits
