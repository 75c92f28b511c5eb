"""Outside-in span tracing of gridfec's public functions.

install() wraps functions and methods of gridfec.cli, specio, channel, grid,
linear and gf2 from outside: each wrapper replaces the original wherever a
gridfec module bound it (so `linear.mat_vec`, imported from gf2, is traced
too), and the cached properties are re-created around a wrapped builder.
Nothing under src/ changes, and uninstalling restores every original object.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
operation id, two counters) and written out when the run ends; layer_metrics
derives self times, counts and ratios from them.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from functools import cached_property
from time import perf_counter_ns
from typing import Callable, Iterator, Optional, Sequence


def _bsc_counts(args, result) -> tuple[int, int]:
    sent = args[1]
    return sent.length, (sent.bits ^ result.bits).bit_count()


def _reconcile_counts(args, result) -> tuple[int, int]:
    grid = args[0]
    return len(result.disagreements), grid.m * grid.n


# (module, attribute, span name, counter extractor): module-level functions.
FUNCTIONS = (
    ("gridfec.cli", "main", "cli.main", None),
    ("gridfec.specio", "parse_spec", "specio.parse_spec", None),
    ("gridfec.channel", "run_trial", "channel.run_trial", None),
    ("gridfec.channel", "derive_seed", "channel.derive_seed", None),
    ("gridfec.channel", "bsc_corrupt", "channel.bsc_corrupt", _bsc_counts),
    ("gridfec.gf2", "mat_vec", "gf2.mat_vec", None),
    ("gridfec.gf2", "rank", "gf2.rank", None),
    ("gridfec.gf2", "row_reduce", "gf2.row_reduce", None),
)

# (module, class, attribute, span name, counter extractor): plain methods.
METHODS = (
    ("gridfec.linear", "LinearCode", "syndrome", "linear.syndrome", None),
    ("gridfec.linear", "LinearCode", "decode", "linear.decode", None),
    ("gridfec.linear", "LinearCode", "min_distance", "linear.min_distance", None),
    ("gridfec.linear", "LinearCode", "is_cyclic", "linear.is_cyclic", None),
    ("gridfec.grid", "GridCode", "decode", "grid.decode", None),
    ("gridfec.grid", "GridCode", "is_member", "grid.is_member", None),
    ("gridfec.grid", "GridCode", "majority_vote", "grid.majority_vote", None),
    ("gridfec.grid", "GridCode", "simultaneous_reconcile", "grid.simultaneous_reconcile",
     _reconcile_counts),
    ("gridfec.grid", "GridCode", "from_row_stream", "grid.stream_parse", None),
    ("gridfec.grid", "GridCode", "from_col_stream", "grid.stream_parse", None),
    ("gridfec.grid", "GridCodeword", "to_row_stream", "grid.stream_format", None),
    ("gridfec.grid", "GridCodeword", "to_col_stream", "grid.stream_format", None),
)

# (module, class, attribute, span name): functools.cached_property builders.
CACHED = (
    ("gridfec.linear", "LinearCode", "codewords", "linear.codewords"),
    ("gridfec.linear", "LinearCode", "coset_table", "linear.coset_table"),
)


class Tracer:
    """In-memory span store; one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func: Callable,
             counts: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call; results pass through untouched."""
        nid = self.name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.a.append(0)
            self.b.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counts is not None:
                self.a[idx], self.b[idx] = counts(args, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = func.__doc__
        traced.__wrapped__ = func
        return traced

    def write(self, path) -> None:
        """Dump every span as one tab-separated line."""
        with open(path, "w") as f:
            f.write("span\top\tparent\tname\tstart_ns\tend_ns\ta\tb\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i]}\t{self.end[i]}\t{self.a[i]}\t{self.b[i]}\n")


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every gridfec module global bound to `original` at `replacement`."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gridfec" or mod_name.startswith("gridfec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced gridfec function for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, name, counts in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            undo += _rebind(original, tracer.wrap(name, original, counts))
        for mod_name, cls_name, attr, name, counts in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, counts))
            undo.append((cls, attr, original))
        for mod_name, cls_name, attr, name in CACHED:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            prop = cached_property(tracer.wrap(name, original.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans.

    Children may overlap one another; the covered part is the length of the
    union of their intervals clipped to the parent's interval.
    """
    count = len(starts)
    covered = [0] * count
    covered_until = list(starts)
    for c in sorted(range(count), key=starts.__getitem__):
        p = parents[c]
        if p < 0:
            continue
        lo = max(starts[c], covered_until[p])
        hi = min(ends[c], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


# Per-layer metric names, in report order, with their units.
LAYER_METRICS = (
    ("channel.bsc_corrupt.calls", "count"),
    ("channel.bsc_corrupt.self_s", "s"),
    ("channel.bsc_corrupt.bits", "count"),
    ("channel.bsc_corrupt.flips", "count"),
    ("channel.derive_seed.calls", "count"),
    ("channel.derive_seed.self_s", "s"),
    ("channel.run_trial.self_s", "s"),
    ("linear.syndrome.calls", "count"),
    ("linear.syndrome.self_s", "s"),
    ("linear.syndrome.per_cell", "ratio"),
    ("gf2.mat_vec.calls", "count"),
    ("gf2.mat_vec.self_s", "s"),
    ("linear.decode.calls", "count"),
    ("linear.decode.self_s", "s"),
    ("grid.decode.calls", "count"),
    ("grid.decode.self_s", "s"),
    ("linear.coset_table.builds", "count"),
    ("linear.coset_table.total_s", "s"),
    ("linear.coset_table.builds_per_op", "ratio"),
    ("linear.codewords.builds", "count"),
    ("linear.codewords.total_s", "s"),
    ("linear.min_distance.calls", "count"),
    ("linear.min_distance.total_s", "s"),
    ("linear.is_cyclic.calls", "count"),
    ("linear.is_cyclic.self_s", "s"),
    ("gf2.rank.calls", "count"),
    ("gf2.rank.self_s", "s"),
    ("gf2.row_reduce.calls", "count"),
    ("gf2.row_reduce.self_s", "s"),
    ("grid.majority_vote.calls", "count"),
    ("grid.majority_vote.self_s", "s"),
    ("grid.majority_vote.fallbacks", "count"),
    ("grid.simultaneous_reconcile.calls", "count"),
    ("grid.simultaneous_reconcile.self_s", "s"),
    ("grid.reconcile.disagreements", "count"),
    ("grid.reconcile.disagreement_ratio", "ratio"),
    ("grid.stream_parse.self_s", "s"),
    ("grid.stream_format.self_s", "s"),
    ("grid.is_member.total_s", "s"),
    ("specio.parse_spec.calls", "count"),
    ("specio.parse_spec.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, ops: int, untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Derive every LAYER_METRICS value from the recorded spans."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    a_sum: dict[str, int] = {}
    b_sum: dict[str, int] = {}
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        total_ns[name] = total_ns.get(name, 0) + tracer.end[i] - tracer.start[i]
        a_sum[name] = a_sum.get(name, 0) + tracer.a[i]
        b_sum[name] = b_sum.get(name, 0) + tracer.b[i]

    # A majority vote falls back when some span below it decoded a cell.
    vote_id = tracer.name_id("grid.majority_vote")
    decode_id = tracer.name_id("linear.decode")
    fallbacks = set()
    for i, nid in enumerate(tracer.name):
        if nid != decode_id:
            continue
        p = tracer.parent[i]
        while p >= 0:
            if tracer.name[p] == vote_id:
                fallbacks.add(p)
                break
            p = tracer.parent[p]

    def count(name: str) -> int:
        return calls.get(name, 0)

    def self_s(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def total_s(name: str) -> float:
        return total_ns.get(name, 0) / 1e9

    cells = count("channel.bsc_corrupt")
    reconciled = b_sum.get("grid.simultaneous_reconcile", 0)
    disagreements = a_sum.get("grid.simultaneous_reconcile", 0)
    out = {
        "channel.bsc_corrupt.calls": cells,
        "channel.bsc_corrupt.self_s": self_s("channel.bsc_corrupt"),
        "channel.bsc_corrupt.bits": a_sum.get("channel.bsc_corrupt", 0),
        "channel.bsc_corrupt.flips": b_sum.get("channel.bsc_corrupt", 0),
        "channel.derive_seed.calls": count("channel.derive_seed"),
        "channel.derive_seed.self_s": self_s("channel.derive_seed"),
        "channel.run_trial.self_s": self_s("channel.run_trial"),
        "linear.syndrome.calls": count("linear.syndrome"),
        "linear.syndrome.self_s": self_s("linear.syndrome"),
        "linear.syndrome.per_cell": count("linear.syndrome") / cells if cells else 0.0,
        "gf2.mat_vec.calls": count("gf2.mat_vec"),
        "gf2.mat_vec.self_s": self_s("gf2.mat_vec"),
        "linear.decode.calls": count("linear.decode"),
        "linear.decode.self_s": self_s("linear.decode"),
        "grid.decode.calls": count("grid.decode"),
        "grid.decode.self_s": self_s("grid.decode"),
        "linear.coset_table.builds": count("linear.coset_table"),
        "linear.coset_table.total_s": total_s("linear.coset_table"),
        "linear.coset_table.builds_per_op": count("linear.coset_table") / ops,
        "linear.codewords.builds": count("linear.codewords"),
        "linear.codewords.total_s": total_s("linear.codewords"),
        "linear.min_distance.calls": count("linear.min_distance"),
        "linear.min_distance.total_s": total_s("linear.min_distance"),
        "linear.is_cyclic.calls": count("linear.is_cyclic"),
        "linear.is_cyclic.self_s": self_s("linear.is_cyclic"),
        "gf2.rank.calls": count("gf2.rank"),
        "gf2.rank.self_s": self_s("gf2.rank"),
        "gf2.row_reduce.calls": count("gf2.row_reduce"),
        "gf2.row_reduce.self_s": self_s("gf2.row_reduce"),
        "grid.majority_vote.calls": count("grid.majority_vote"),
        "grid.majority_vote.self_s": self_s("grid.majority_vote"),
        "grid.majority_vote.fallbacks": len(fallbacks),
        "grid.simultaneous_reconcile.calls": count("grid.simultaneous_reconcile"),
        "grid.simultaneous_reconcile.self_s": self_s("grid.simultaneous_reconcile"),
        "grid.reconcile.disagreements": disagreements,
        "grid.reconcile.disagreement_ratio": disagreements / reconciled if reconciled else 0.0,
        "grid.stream_parse.self_s": self_s("grid.stream_parse"),
        "grid.stream_format.self_s": self_s("grid.stream_format"),
        "grid.is_member.total_s": total_s("grid.is_member"),
        "specio.parse_spec.calls": count("specio.parse_spec"),
        "specio.parse_spec.total_s": total_s("specio.parse_spec"),
        "cli.main.calls": count("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    return {name: out[name] for name, _ in LAYER_METRICS}
