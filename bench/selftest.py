"""Tests of the benchmark's own arithmetic and tracing.

    python3 bench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py) because benchmarks stay out of tier-1.
"""

from __future__ import annotations

import io
import json
import random
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gridfec.cli  # noqa: E402
import gridfec.gf2  # noqa: E402
import gridfec.linear  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from gridfec import (  # noqa: E402
    BitMatrix,
    BitVector,
    ChannelConfig,
    CyclicSpec,
    Gf2Poly,
    GridCode,
    GridCodeword,
    LinearCode,
    cyclic_from_poly,
    hamming,
    mat_vec,
    repetition,
    run_trial,
)
from workloads import BLOCK_8_4, WORKLOADS  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 100] has children a [10, 40], b [30, 60] (overlapping a)
        # and c [90, 120] (running past root); a has child g [15, 25].
        starts = [0, 10, 15, 30, 90]
        ends = [100, 40, 25, 60, 120]
        parents = [-1, 0, 1, 0, 0]
        # root: 100 minus the union [10, 60] and the clipped [90, 100].
        self.assertEqual(tracing.self_times(starts, ends, parents), [40, 20, 10, 30, 30])

    def test_order_does_not_matter(self):
        starts = [30, 0, 10]
        ends = [60, 100, 40]
        parents = [1, -1, 1]
        self.assertEqual(tracing.self_times(starts, ends, parents), [30, 50, 30])


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, beyond = stats.tail([float(v) for v in range(1, 101)])
        self.assertEqual((value, pct, beyond), (90.0, 90.0, 10))

    def test_highest_such_percentile(self):
        rng = random.Random(1)
        for n in (11, 12, 57, 400):
            values = [rng.random() for _ in range(n)]
            value, pct, beyond = stats.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            # The next sample up has fewer than ten beyond it.
            higher = min(v for v in values if v > value)
            self.assertEqual(sum(v > higher for v in values), 9)
            self.assertAlmostEqual(pct, 100 * (n - 10) / n)

    def test_too_few_samples(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class ScaleTest(unittest.TestCase):
    def test_scales_by_the_mean_kernel_time_around_the_duration(self):
        # Kernels of 1 and 3 ms around a 10 ms step: the machine ran at half
        # the speed where the kernel takes 1 ms.
        self.assertEqual(stats.scale(10.0, 1.0, 3.0, 1.0), 5.0)
        self.assertEqual(stats.scale(10.0, 2.0, 2.0, 2.0), 10.0)


class ExactProbabilityTest(unittest.TestCase):
    def test_hamming3_matches_closed_form(self):
        code = hamming(3)
        weights = [e.weight() for _, e in code.coset_table.items()]
        for p in (0.01, 0.05, 0.2):
            closed_failure = 1 - (1 - p) ** 7 - 7 * p * (1 - p) ** 6
            self.assertAlmostEqual(stats.cell_success_probability(weights, 7, p),
                                   1 - closed_failure, places=12)

    def test_percell_workload_is_nine_cells(self):
        workload = WORKLOADS["percell_ham3x3"]()
        workload.grid = GridCode.uniform(hamming(3), 3, 3)
        cell = 1 - (1 - (1 - 0.05) ** 7 - 7 * 0.05 * 0.95 ** 6)
        self.assertAlmostEqual(workload.success_probability(), cell ** 9, places=12)

    def test_window_sd_counts_shared_trials(self):
        ops, trials, prob = 5, 3, 0.3
        weights = [0] * (ops + trials - 1)
        for i in range(ops):
            for t in range(trials):
                weights[i + t] += 1
        expected = (prob * (1 - prob) * sum(w * w for w in weights)) ** 0.5
        self.assertAlmostEqual(stats.window_sum_sd(ops, trials, prob), expected)


def _calls(tmp: Path) -> list:
    """Results of every traced layer on fresh objects, as plain values."""
    spec = tmp / "ham.json"
    spec.write_text(json.dumps({"shape": "grid", "cells": [[{"kind": "hamming", "m": 3}] * 2]}))
    out = io.StringIO()
    with redirect_stdout(out):
        rc = gridfec.cli.main(["sim", "run", "--spec", str(spec), "--fill", "1010101",
                               "--p", "0.1", "--trials", "30", "--seed", "4",
                               "--strategy", "per_cell_decode"])
    block = LinearCode.from_parity(BitMatrix.from_strings(list(BLOCK_8_4)))
    cell = BitVector.from_string("10111001")
    vote_grid = GridCode.uniform(block, 3, 4)
    vote_sent = GridCodeword.from_rows([[cell] * 4 for _ in range(3)])
    ham = hamming(3)
    word = BitVector.from_string("1110101")
    cyclic = cyclic_from_poly(CyclicSpec(7, Gf2Poly.from_string("1101")))
    return [
        (rc, out.getvalue()),
        mat_vec(ham.h, word),
        gridfec.linear.mat_vec(ham.h, word),
        gridfec.gf2.rank(ham.h),
        gridfec.gf2.row_reduce(ham.h),
        ham.syndrome(word),
        ham.decode(word),
        sorted(ham.coset_table.items(), key=lambda kv: kv[0].bits),
        sorted(w.bits for w in cyclic.codewords),
        cyclic.min_distance(),
        cyclic.is_cyclic(),
        repetition(5).decode(BitVector.from_string("11010")),
        run_trial(vote_grid, vote_sent, "majority_vote", ChannelConfig(0.2, 3), 10),
        run_trial(GridCode.uniform(ham, 2, 3),
                  GridCodeword.from_rows([[BitVector.from_string("1010101")] * 3] * 2),
                  "simultaneous", ChannelConfig(0.1, 5), 10),
    ]


class WrappingTest(unittest.TestCase):
    def test_wrapped_results_equal_unwrapped(self):
        tmp = BENCH.parent / ".bench_build" / "gridfec-bench" / "selftest"
        tmp.mkdir(parents=True, exist_ok=True)
        plain = _calls(tmp)
        original = gridfec.linear.mat_vec
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            self.assertIsNot(gridfec.linear.mat_vec, original)
            wrapped = _calls(tmp)
        self.assertEqual(wrapped, plain)
        self.assertIs(gridfec.linear.mat_vec, original)
        seen = {tracer.names[i] for i in tracer.name}
        for name in ("cli.main", "specio.parse_spec", "channel.run_trial",
                     "channel.bsc_corrupt", "channel.derive_seed", "gf2.mat_vec",
                     "gf2.rank", "gf2.row_reduce", "linear.syndrome", "linear.decode",
                     "linear.coset_table", "linear.codewords", "linear.min_distance",
                     "linear.is_cyclic", "grid.decode", "grid.majority_vote",
                     "grid.simultaneous_reconcile", "grid.stream_parse",
                     "grid.stream_format", "grid.is_member"):
            self.assertIn(name, seen)
        metrics = tracing.layer_metrics(tracer, 1, 1.0, 2.0)
        self.assertEqual(list(metrics), [name for name, _ in tracing.LAYER_METRICS])
        self.assertEqual(metrics["trace.overhead_ratio"], 2.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
