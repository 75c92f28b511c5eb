"""The four benchmark workloads: their inputs, one operation, and its check.

Inputs are written by the benchmark itself from the workload seed; nothing
is read from tests/.  Operation i of a run uses channel seed `seed + i`.
Importing this module does not import gridfec: the child process times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from stats import cell_success_probability

# Ex 3.3.1: a 3 x 2 grid whose columns have lengths 6 and 7 and whose rows
# have 3, 4 and 3 check symbols.  The six parity-check matrices, row-major.
EX_3_3_1 = (
    (("001100", "011010", "111001"), ("1001100", "0101010", "1110001")),
    (("101000", "110100", "010010", "100001"), ("1111000", "0110100", "1010010", "1100001")),
    (("100100", "110010", "101001"), ("1101100", "0110010", "1111001")),
)

# The (8, 4) block code of acceptance criterion 9; d = 2.
BLOCK_8_4 = ("01101000", "10010100", "11100010", "10000001")

SIM_COUNTERS = ("trials", "decode_success", "undetected_error", "residual_bit_errors")


def _captured(argv: list[str]) -> tuple[int, str]:
    """One in-process `gridfec` CLI call with stdout and stderr captured."""
    import gridfec.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = gridfec.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


class SimWorkload:
    """`gridfec sim run` on one grid spec; an operation is one CLI call."""

    def __init__(self, name: str, spec: dict, strategy: str, p: float, trials: int,
                 trace_ops: int, fill: str | None = None) -> None:
        self.name = name
        self.spec = spec
        self.strategy = strategy
        self.p = p
        self.trials = trials
        self.trace_ops = trace_ops
        self.fill = fill
        self.dir = Path()

    def write_inputs(self, workdir: Path) -> None:
        self.dir = workdir
        (workdir / "spec.json").write_text(json.dumps(self.spec))

    def setup(self, workdir: Path, parsed: dict) -> None:
        """Take the parsed spec; the child timed its parse with the imports."""
        self.dir = workdir
        self.grid = parsed["spec.json"]

    def prepare(self, seed: int) -> None:
        """Write any input that needs the parsed code (untimed)."""
        if self.fill is None:
            from gridfec.gf2 import BitVector

            rng = random.Random(seed)
            messages = [[BitVector(c.k, rng.getrandbits(c.k)) for c in row]
                        for row in self.grid.cells]
            sent = self.grid.encode(messages)
            (self.dir / "sent.txt").write_text("\n".join(sent.to_row_stream()) + "\n")

    def fingerprint(self) -> str:
        """Digest of everything an operation's output depends on except its seed."""
        parts = [json.dumps(self.spec, sort_keys=True), self.strategy, repr(self.p),
                 str(self.trials), self.fill or (self.dir / "sent.txt").read_text()]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def argv(self, seed: int) -> list[str]:
        sent = (["--fill", self.fill] if self.fill is not None
                else ["--stream-file", str(self.dir / "sent.txt")])
        return ["sim", "run", "--spec", str(self.dir / "spec.json"), *sent,
                "--p", repr(self.p), "--trials", str(self.trials),
                "--seed", str(seed), "--strategy", self.strategy]

    def steps(self, seed: int) -> list:
        """The operation for seed, as a list of calls the loop times one by one."""
        argv = self.argv(seed)
        return [lambda: _captured(argv)]

    def check(self, result: list) -> tuple[str | None, tuple[int, ...] | None]:
        """(error message or None, the four printed counters or None)."""
        rc, out = result[0]
        if rc != 0:
            return f"exit code {rc}", None
        fields = _lines(out)
        try:
            counters = tuple(int(fields[k]) for k in SIM_COUNTERS)
        except (KeyError, ValueError):
            return f"unexpected output {out!r}", None
        trials, success, undetected, residual = counters
        if trials != self.trials or not 0 <= success <= trials \
                or not 0 <= undetected <= trials or residual < 0:
            return f"counters out of range: {counters}", counters
        return None, counters

    def success_probability(self) -> float:
        """Exact per-trial success probability of per-cell coset decoding.

        Every cell must decode; a cell decodes exactly when its error is a
        coset leader, with leaders read from the public coset table.
        """
        prob = 1.0
        for row in self.grid.cells:
            for code in row:
                weights = [e.weight() for _, e in code.coset_table.items()]
                prob *= cell_success_probability(weights, code.n, self.p)
        return prob


class EnumWorkload:
    """Enumeration audit; an operation is a fixed batch of three calls.

    `code info` on parity_check(17) enumerates 65,536 codewords for the
    minimum distance, `code decode` on repetition(14) builds the 8,192-coset
    table, and `LinearCode.is_cyclic()` on the cyclic (17, 16) code walks its
    65,536 codewords.  Its inputs do not depend on the seed.
    """

    name = "enum_audit"
    trials = 1  # one audit batch per operation
    trace_ops = 4
    SPECS = {
        "parity17.json": {"kind": "parity_check", "n": 17},
        "repetition14.json": {"kind": "repetition", "n": 14},
        "cyclic17.json": {"kind": "cyclic", "n": 17, "g": "11"},
    }
    WORD = "11111111111100"
    DECODED = "11111111111111"

    def __init__(self) -> None:
        self.dir = Path()

    def write_inputs(self, workdir: Path) -> None:
        self.dir = workdir
        for name, spec in self.SPECS.items():
            (workdir / name).write_text(json.dumps(spec))

    def setup(self, workdir: Path, parsed: dict) -> None:
        self.dir = workdir

    def prepare(self, seed: int) -> None:
        self.cyclic_spec = (self.dir / "cyclic17.json").read_text()

    def steps(self, seed: int) -> list:
        import gridfec.specio

        return [
            lambda: _captured(["code", "info", "--spec", str(self.dir / "parity17.json")]),
            lambda: _captured(["code", "decode", "--spec", str(self.dir / "repetition14.json"),
                               "--word", self.WORD]),
            lambda: gridfec.specio.parse_spec(self.cyclic_spec).is_cyclic(),
        ]

    def check(self, result: list) -> tuple[str | None, None]:
        (info_rc, info), (decode_rc, decode), cyclic = result
        if info_rc != 0 or _lines(info).get("min distance") != "2":
            return f"code info: exit {info_rc}, output {info!r}", None
        if decode_rc != 1 or _lines(decode).get("codeword") != self.DECODED:
            return f"code decode: exit {decode_rc}, output {decode!r}", None
        if cyclic is not True:
            return f"is_cyclic returned {cyclic!r}", None
        return None, None


WORKLOADS = {
    "percell_ham3x3": lambda: SimWorkload(
        "percell_ham3x3",
        {"shape": "grid", "cells": [[{"kind": "hamming", "m": 3}] * 3 for _ in range(3)]},
        "per_cell_decode", 0.05, 200, trace_ops=24, fill="1010101"),
    "vote_block16x17": lambda: SimWorkload(
        "vote_block16x17",
        {"shape": "grid", "codes": {"block": {"kind": "parity", "rows": list(BLOCK_8_4)}},
         "cells": [["block"] * 17 for _ in range(16)]},
        "majority_vote", 0.05, 20, trace_ops=12, fill="10111001"),
    "reconcile_mixed15x16": lambda: SimWorkload(
        "reconcile_mixed15x16",
        {"shape": "grid",
         "codes": {f"r{i}c{j}": {"kind": "parity", "rows": list(EX_3_3_1[i][j])}
                   for i in range(3) for j in range(2)},
         "cells": [[f"r{i % 3}c{j % 2}" for j in range(16)] for i in range(15)]},
        "simultaneous", 0.02, 8, trace_ops=12),
    "enum_audit": EnumWorkload,
}
