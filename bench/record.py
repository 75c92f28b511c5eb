"""Repeat the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --out bench/results/BENCH_<tag>.json
    python3 bench/record.py --first-seed 11 --out bench/results/BENCH_<tag>_set2.json

Runs `run.py` once per (seed, workload), ten seeds from --first-seed,
cycling through the workloads of BENCHMARK.json so that each one's runs are
spread over the whole recording.  For every end-to-end metric it reports the
median, the quartiles as statistics.quantiles(n=4) gives them, and their
distance as a share of the median, next to the bound in BENCHMARK.json.
With --out it also makes two traced runs per workload at seed 0, checks that
their counts agree, and writes everything to one JSON file together with the
Python version, the commit, the processor count and the line count of
src/gridfec.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
TRACE_SEED = 0


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "gridfec").rglob("*.py")))


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "bound": metric["bound"], "values": values}
    return out


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"
            and k != "trace.overhead_ratio"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    started = time.time()
    for seed in seeds:
        for w in WORKLOADS:
            result = _run(w, seed, 0)
            runs[w].append(result)
            print(f"seed {seed:>3} {w:<22} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = {}
    for w in WORKLOADS:
        summary[w] = {"correct": all(r["correct"] for r in runs[w]),
                      "attempted": sum(r["attempted"] for r in runs[w]),
                      "failed": sum(r["failed"] for r in runs[w]),
                      "metrics": summarize(runs[w])}
        print(f"{w}: fail_ratio {summary[w]['failed']}/{summary[w]['attempted']}")
        for name, m in summary[w]["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"  {name:<14} median {m['median']:<12.5g} {m['unit']:<4} "
                  f"spread {m['spread']:.4f} (bound {m['bound']}){flag}")
    print(f"{len(seeds) * len(WORKLOADS)} runs in {time.time() - started:.0f} s")
    if args.out is None:
        return 0

    layers = {}
    for w in WORKLOADS:
        first, second = _run(w, TRACE_SEED, 1), _run(w, TRACE_SEED, 1)
        layers[w] = {"seed": TRACE_SEED,
                     "counts_repeat": _counts(first) == _counts(second),
                     "metrics": {k: v["value"] for k, v in first["metrics"].items()}}
        print(f"{w}: traced counts repeat: {layers[w]['counts_repeat']}")
    doc = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "src_gridfec_lines": _source_lines(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": SPEC["run_seconds"],
        "seeds": seeds,
        "end_to_end": summary,
        "per_layer": layers,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
