"""The gridfec benchmark: one command, four workloads, every output checked.

    python3 bench/run.py                   # all workloads, end-to-end metrics
    python3 bench/run.py --trace 1         # all workloads, per-layer metrics
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (child.py), one at a time, so
nothing a workload caches survives into the next.  An untraced run starts
SETUP_PROBES set-up-only children, half before and half after the one that
runs the timed closed loop, and reports the median set-up time of all of
them.  A traced run runs a fixed number of operations twice, untraced and
traced, so that its counts repeat exactly.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit code
is 0 only when every child finished, whether or not the outputs were right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gridfec-bench"
SETUP_PROBES = 8
BUDGET_S = 170.0  # every child of one workload ends within this many seconds

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    """A child failed to finish; no result can be reported."""


def _child(mode: str, name: str, seed: int, seconds: float, workdir: Path,
           spans: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{name}: out of time before the {mode} child")
    cmd = [sys.executable, "-s", str(BENCH / "child.py"), mode, name, str(seed),
           str(seconds), str(workdir), str(SRC), str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} child killed after {remaining:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name}: {mode} child exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    deadline = time.monotonic() + BUDGET_S
    workdir = WORK / f"{name}-{os.getpid()}"
    spans = WORK / "trace" / f"{name}.tsv"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[name]().write_inputs(workdir)
        if trace:
            out = _child("trace", name, seed, seconds, workdir, spans, deadline)
            metrics = {m: {"value": out["layers"][m], "unit": unit} for m, unit in LAYER_METRICS}
            lines = [f"{name}: {out['ops']} operations untraced, then traced "
                     f"({out['spans']} spans in {spans.relative_to(ROOT)})"]
            lines += [f"  {m:<38} {v['value']:>14.6g} {v['unit']}" for m, v in metrics.items()]
        else:
            def probe() -> dict:
                return _child("probe", name, seed, seconds, workdir, spans, deadline)

            probe()  # compiles bytecode on a fresh checkout; not counted
            probes = [probe() for _ in range(SETUP_PROBES // 2)]
            out = _child("run", name, seed, seconds, workdir, spans, deadline)
            probes.append(out)
            probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            out["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            wall_setup = statistics.median(p["wall_setup_s"] for p in probes)
            metrics = {m: {"value": out[m], "unit": unit} for m, unit in END_TO_END}
            lines = [f"{name}: seed {seed}, {out['samples']} operations in "
                     f"{out['timed_s']:.2f} s of wall time; machine speed "
                     f"{out['machine_speed']:.2f} of the reference"]
            wall = {"trials_per_s": out["wall_trials_per_s"], "op_ms_p50": out["wall_op_ms_p50"],
                    "op_ms_tail": out["wall_op_ms_tail"], "setup_s": wall_setup}
            for m, v in metrics.items():
                note = f"  (wall {wall[m]:.4f})" if m in wall else ""
                if m == "op_ms_tail":
                    note += (f"  p{out['tail_percentile']:.2f} of {out['samples']} samples, "
                             f"{out['tail_beyond']} beyond")
                elif m == "setup_s":
                    note += f"  median of {len(probes)} fresh children"
                lines.append(f"  {m:<14} {v['value']:>12.4f} {v['unit']:<4}{note}")
            lines.append(f"  {'fail_ratio':<14} {out['failed'] / out['attempted']:>12.4f}"
                         f"       {out['failed']} failed of {out['attempted']} attempted; "
                         f"{out['reference_checked']} checked against reference counters")
        if "exact_check" in out:
            x = out["exact_check"]
            lines.append(f"  exact check: {x['observed_successes']} successes, "
                         f"{x['expected_successes']:.1f} expected, z = {x['z']:.2f}")
        lines += [f"  FAILED {f}" for f in out["failures"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if not (SRC / "gridfec" / "__init__.py").is_file():
        print(f"error: no gridfec sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
