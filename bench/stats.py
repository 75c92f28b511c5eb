"""Summary statistics the benchmark reports and checks with.

Standard library only; nothing here imports gridfec.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

TAIL_BEYOND = 10  # samples that must lie above the reported tail value


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With n sorted samples the
    value is the one at 0-based rank n - 11, so exactly ten lie beyond it and
    the percentile is 100 * (n - 10) / n.  Below eleven samples no percentile
    qualifies; the maximum is returned as percentile 100 with none beyond.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def scale(duration: float, kernel_before: float, kernel_after: float,
          reference: float) -> float:
    """`duration` at the machine speed where the calibration kernel takes `reference`.

    The kernel times measured just before and just after the duration give
    the machine's speed while it ran.
    """
    return duration * 2.0 * reference / (kernel_before + kernel_after)


def cell_success_probability(leader_weights: Iterable[int], n: int, p: float) -> float:
    """Exact probability that coset-leader decoding recovers one cell.

    Decoding succeeds exactly when the channel error is a coset leader, so
    the probability is the sum over leaders e of p^w(e) * (1 - p)^(n - w(e))
    (MacWilliams & Sloane 1977, ch. 1).
    """
    return sum(p ** w * (1.0 - p) ** (n - w) for w in leader_weights)


def window_sum_sd(ops: int, trials: int, prob: float) -> float:
    """Standard deviation of the summed successes of `ops` sliding windows.

    Operation i runs with seed s + i, and the channel derives trial t of
    seed s + i from the same stream as trial t + 1 of seed s + i - 1, so
    operation i covers the global trials i .. i + trials - 1.  A global trial
    covered by w operations contributes w times; with independent global
    trials the variance is prob * (1 - prob) * sum(w^2).  Should operations
    ever share fewer trials, this over-estimates the spread, which keeps the
    tolerance valid.
    """
    total = 0
    for k in range(ops + trials - 1):
        w = min(k, ops - 1) - max(0, k - trials + 1) + 1
        total += w * w
    return math.sqrt(prob * (1.0 - prob) * total)
