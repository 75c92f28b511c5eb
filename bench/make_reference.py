"""Record the reference counters that untraced runs at the reference seed check.

    python3 bench/make_reference.py

For every `sim run` workload this runs operations 0 .. N-1 at seed 0,
without timing them, and stores the decode_success, undetected_error and
residual_bit_errors each printed, with a digest of the workload's inputs.
The channel output is a fixed contract, so these counters must not change
when the code does; rerun this only when a workload's inputs change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gridfec.specio  # noqa: E402
from loop import REFERENCE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
# About ten times the operations a 25-second run completes in the machine's fast
# phases, so that runs of a program up to ten times faster are still checked
# in full; a run that outruns the reference is reported as not correct.
OPS = {"percell_ham3x3": 9600, "vote_block16x17": 4800, "reconcile_mixed15x16": 4800}


def record(name: str, workdir: Path) -> dict:
    workload = WORKLOADS[name]()
    workload.write_inputs(workdir)
    parsed = {p.name: gridfec.specio.parse_spec(p.read_text()) for p in workdir.glob("*.json")}
    workload.setup(workdir, parsed)
    workload.prepare(SEED)
    counters = []
    for i in range(OPS[name]):
        error, found = workload.check([step() for step in workload.steps(SEED + i)])
        if error is not None:
            raise SystemExit(f"{name} op {i}: {error}")
        counters.append(list(found[1:]))
    return {"fingerprint": workload.fingerprint(), "trials": workload.trials,
            "counters": counters}


def main() -> int:
    workdir = BENCH.parent / ".bench_build" / "gridfec-bench" / "reference"
    entries = {}
    for name in OPS:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        entries[name] = record(name, workdir)
        print(f"{name}: {len(entries[name]['counters'])} operations recorded", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
             for name, entry in entries.items()]
    REFERENCE.write_text('{"seed": %d, "workloads": {\n%s\n}}\n' % (SEED, ",\n".join(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
