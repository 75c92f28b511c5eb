"""The closed loop, output checks and tracing of one benchmark child.

child.py imports this module only after it has timed set-up, so nothing
loaded here counts towards set-up time.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

import stats
import tracing
from kernel import KERNEL_REF_S, calibration_kernel
from workloads import WORKLOADS, SimWorkload

REFERENCE = Path(__file__).with_name("reference_seed0.json")
Z_LIMIT = 5.0  # standard deviations allowed between observed and exact successes


def _op(workload, seed: int, before: float | None = None):
    """Run one operation step by step; returns (wall s, scaled s, result, kernel s).

    With `before`, the calibration kernel time measured just before, the
    kernel runs again after every step, outside the timed region, and each
    step's time is scaled by the kernel times around it.  Without it the
    scaled time is 0.  The result is the list of step results, or the
    exception that ended the operation.
    """
    clock = time.perf_counter
    wall = scaled = 0.0
    result = []
    for step in workload.steps(seed):
        t0 = clock()
        try:
            result.append(step())
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        took = clock() - t0
        wall += took
        if before is not None:
            after = calibration_kernel()
            scaled += stats.scale(took, before, after, KERNEL_REF_S)
            before = after
        if isinstance(result, Exception):
            break
    return wall, scaled, result, before


def _timed_ops(workload, seed: int, seconds: float):
    """Closed loop: the next operation starts when the previous one returns.

    Returns per operation its wall time, its time scaled to reference
    machine speed, and its result.
    """
    deadline = time.perf_counter() + seconds
    wall, scaled, results = [], [], []
    kernel = calibration_kernel()
    while not wall or time.perf_counter() < deadline:
        w, s, result, kernel = _op(workload, seed + len(wall), kernel)
        wall.append(w)
        scaled.append(s)
        results.append(result)
    return wall, scaled, results


def _reference(workload, seed: int):
    """Recorded counters for this workload at the reference seed, else None."""
    if not isinstance(workload, SimWorkload):
        return None
    doc = json.loads(REFERENCE.read_text())
    entry = doc["workloads"].get(workload.name)
    if seed != doc["seed"] or entry is None:
        return None
    if entry["fingerprint"] != workload.fingerprint():
        raise SystemExit(f"{workload.name}: inputs differ from those the reference was "
                         "recorded with; run make_reference.py")
    return entry["counters"]


def verify(workload, seed: int, results) -> dict:
    """Check every operation's output; feeds `failed` and `correct`."""
    reference = _reference(workload, seed)
    failures = []
    counters = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            failures.append(f"op {i}: {type(result).__name__}: {result}")
            continue
        error, found = workload.check(result)
        if error is None and reference is not None and i < len(reference) \
                and list(found[1:]) != reference[i]:
            error = f"counters {found[1:]} differ from reference {reference[i]}"
        if error is not None:
            failures.append(f"op {i}: {error}")
        elif found is not None:
            counters.append(found)
    out = {"attempted": len(results), "failed": len(failures), "failures": failures[:5],
           "reference_checked": min(len(results), len(reference or ()))}
    correct = not failures
    if reference is not None and len(results) > len(reference):
        # Operations past the recorded ones would go unchecked; rerecord with more.
        correct = False
        out["failures"].append(f"{len(results)} operations outran the {len(reference)} "
                               "reference counters; raise OPS in make_reference.py")
    if getattr(workload, "strategy", None) == "per_cell_decode" and counters:
        prob = workload.success_probability()
        ops = len(counters)
        observed = sum(c[1] for c in counters)
        expected = ops * workload.trials * prob
        z = (observed - expected) / stats.window_sum_sd(ops, workload.trials, prob)
        out["exact_check"] = {"observed_successes": observed, "expected_successes": expected,
                              "success_probability": prob, "z": z, "z_limit": Z_LIMIT}
        correct = correct and abs(z) <= Z_LIMIT
    out["correct"] = correct
    return out


def timed(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics at reference machine speed, with the wall-clock ones."""
    wall, durations, results = _timed_ops(workload, seed, seconds)
    out = verify(workload, seed, results)
    trials = len(durations) * workload.trials
    tail, pct, beyond = stats.tail(durations)
    out.update(
        samples=len(durations),
        timed_s=sum(wall),
        trials_per_s=trials / sum(durations),
        op_ms_p50=statistics.median(durations) * 1e3,
        op_ms_tail=tail * 1e3,
        tail_percentile=pct,
        tail_beyond=beyond,
        wall_trials_per_s=trials / sum(wall),
        wall_op_ms_p50=statistics.median(wall) * 1e3,
        wall_op_ms_tail=stats.tail(wall)[0] * 1e3,
        machine_speed=sum(durations) / sum(wall),
    )
    return out


def traced(workload, seed: int, spans_path: Path) -> dict:
    """The same fixed operations untraced, then traced; counts repeat exactly."""
    ops = range(workload.trace_ops)
    t0 = time.perf_counter()
    plain = [_op(workload, seed + i)[2] for i in ops]
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    spanned = []
    with tracing.install(tracer):
        t0 = time.perf_counter()
        for i in ops:
            tracer.op_id = i
            spanned.append(_op(workload, seed + i)[2])
        traced_s = time.perf_counter() - t0
    tracer.write(spans_path)
    out = verify(workload, seed, plain)
    differ = sum(1 for a, b in zip(plain, spanned) if a != b)
    out["attempted"] += len(spanned)
    out["failed"] += differ
    if differ:
        out["correct"] = False
        out["failures"].append(f"{differ} traced outputs differ from the untraced ones")
    out.update(ops=len(ops), spans=len(tracer), untraced_s=untraced_s, traced_s=traced_s,
               layers=tracing.layer_metrics(tracer, len(ops), untraced_s, traced_s))
    return out


def run(mode: str, name: str, seed: int, seconds: float, workdir: Path,
        spans: Path, parsed: dict, setup_s: float, setup_kernels: list[float]) -> dict:
    """Finish the child's work after set-up; returns the JSON result."""
    workload = WORKLOADS[name]()
    workload.setup(workdir, parsed)
    out = {}
    if mode != "probe":
        workload.prepare(seed)
        out = timed(workload, seed, seconds) if mode == "run" else traced(workload, seed, spans)
    out["wall_setup_s"] = setup_s
    out["setup_s"] = stats.scale(setup_s, *setup_kernels, KERNEL_REF_S)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out
