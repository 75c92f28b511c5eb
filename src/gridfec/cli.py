"""Command-line front end.

Exit codes: 0 on success, 1 when a decode-style command detected (and
corrected or arbitrated) errors, 2 on usage or validation problems, 141
(the shell's status for SIGPIPE) when standard output was closed early,
as by `| head`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .approx import ApproxDecodeError, approx_decode
from .gf2 import BitVector, Gf2Error
from .linear import CapacityError, CodeError, LinearCode
from .specio import SpecError, parse_spec, parse_super_word, to_super_codeword

# The grid, super and sim verbs import the modules they run, so that a
# single-code command loads none of grid, super_codes or channel.
if TYPE_CHECKING:
    from .grid import GridCode, GridCodeword
    from .specio import AnyCode
    from .super_codes import SuperColumnCode, SuperRowCode

DETECTED_ERROR = 1
USAGE_ERROR = 2
BROKEN_PIPE = 141

_WORD_LIST_CAP = 12  # max k for which codeword sets are printed in full


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # A known verb is parsed by its own parser, the one the full tree would hand
    # its arguments to.  Anything left over goes back through the full tree,
    # which alone prints unknown-verb and leftover-argument errors.
    verb = _VERBS.get(tuple(argv[:2]))
    args, rest = verb.parse_known_args(argv[2:]) if verb else (None, None)
    if verb is None or rest:
        args = parser.parse_args(argv)
    try:
        status = args.func(args.need(parse_spec(_read_text(args.spec))), args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader is gone: send what is left to devnull so that the flush at
        # exit does not fail again, and print no error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (SpecError, CodeError, Gf2Error, ApproxDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


# (group, verb) -> the verb's parser, filled by _build_parser.
_VERBS: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache  # one parser per process; parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfec",
        description="Binary linear block codes, their compositions, and a channel simulator.")
    sub = parser.add_subparsers(required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True, type=Path, help="JSON code/composition spec")
    stream = argparse.ArgumentParser(add_help=False, parents=[spec])
    stream.add_argument("--stream-file", required=True, type=Path,
                        help="received stream, one super row string per line")
    stream.add_argument("--by", choices=("row", "col"), default="row",
                        help="whether the stream lists rows or columns")

    def verbs(group: str, help: str, need):
        """A verb group's adder; `main` hands its verbs the spec's code through `need`."""
        adder = sub.add_parser(group, help=help).add_subparsers(required=True)

        def verb(name: str, func, help: str, parent=spec) -> argparse.ArgumentParser:
            p = adder.add_parser(name, help=help, parents=[parent])
            p.set_defaults(func=func, need=need)
            _VERBS[group, name] = p
            return p

        return verb

    code = verbs("code", "single linear code operations", _expect_linear)
    code("info", _code_info, "print code parameters")
    p = code("encode", _code_encode, "encode a message")
    p.add_argument("--message", required=True, help="message bits, length k")
    p = code("decode", _code_decode, "decode a received word")
    p.add_argument("--word", required=True, help="received bits, length n")
    p.add_argument("--strategy", choices=("coset", "approx"), default="coset")

    sup = verbs("super", "row/column composition operations", _expect_super)
    sup("new", _super_new, "validate a composition and print a summary")
    p = sup("encode", _super_encode, "encode per-component messages")
    p.add_argument("--messages", required=True, help="'|'-separated messages")
    p = sup("decode", _super_decode, "decode a received super word")
    p.add_argument("--word", required=True, help="'|'-separated received word")
    sup("rate", _super_rate, "print the transmission rate")
    sup("dual", _super_dual, "print the componentwise dual")

    grid = verbs("grid", "grid code operations", _expect_grid)
    p = grid("encode", _grid_encode, "encode a message grid to a row stream")
    p.add_argument("--messages-file", required=True, type=Path,
                   help="one '|'-separated message row per line")
    grid("decode", _grid_decode, "decode a received stream per cell", stream)
    p = grid("stream", _grid_stream,
             "re-serialize a stream between row and column order", stream)
    p.add_argument("--to", choices=("row", "col"), required=True)
    grid("vote", _grid_vote, "majority vote over a uniform grid", stream)
    p = grid("reconcile", _grid_reconcile, "merge row- and column-transmitted copies")
    p.add_argument("--row-file", required=True, type=Path)
    p.add_argument("--col-file", required=True, type=Path)
    p = grid("chart", _grid_chart, "select the cells a true chart marks", stream)
    p.add_argument("--chart-file", required=True, type=Path,
                   help="'*'/'.' grid matching the code grid")
    p = grid("mask", _grid_mask,
             "select cells by arithmetic progression or stencil", stream)
    p.add_argument("--first", type=int)
    p.add_argument("--diff", type=int)
    p.add_argument("--last", type=int)
    p.add_argument("--stencil", help="shipped stencil name: t, k or cross")

    sim = verbs("sim", "channel simulation", _expect_grid)
    p = sim("run", _sim_run, "run Monte-Carlo trials of a decoding strategy")
    sent = p.add_mutually_exclusive_group()  # optional: _sim_run reports neither given
    sent.add_argument("--fill", help="codeword repeated in every cell")
    sent.add_argument("--stream-file", type=Path, help="row stream of the sent grid word")
    p.add_argument("--p", type=float, required=True, help="bit flip probability")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    # No `choices`: they would load channel for every command.  run_trial refuses a
    # name outside channel.STRATEGIES; a test keeps this metavar equal to that list.
    p.add_argument("--strategy", required=True,
                   metavar="{per_cell_decode,majority_vote,simultaneous}")
    return parser


def _expect_linear(code: AnyCode) -> LinearCode:
    if not isinstance(code, LinearCode):
        raise SpecError("this command needs a single-code spec, not a composition")
    return code


def _expect_super(code: AnyCode):
    from .super_codes import SuperColumnCode, SuperRowCode

    if not isinstance(code, (SuperRowCode, SuperColumnCode)):
        raise SpecError("this command needs a row or column composition spec")
    return code


def _expect_grid(code: AnyCode) -> GridCode:
    from .grid import GridCode

    if isinstance(code, LinearCode):
        return GridCode([[code]])
    if not isinstance(code, GridCode):
        raise SpecError("this command needs a grid (or single-code) spec")
    return code


def _print_rate(k: int, n: int) -> None:
    """Print "rate: k/n", with the reduced fraction appended when it differs."""
    g = math.gcd(k, n)
    reduced = str(k // g) if g == n else f"{k // g}/{n // g}"
    print(f"rate: {k}/{n}" if g == 1 else f"rate: {k}/{n} = {reduced}")


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file; a file that is not UTF-8 is a usage error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_lines(path: Path) -> list[str]:
    return [ln for ln in _read_text(path).splitlines() if ln.strip()]


def _read_stream(args, grid: GridCode) -> GridCodeword:
    lines = _read_lines(args.stream_file)
    return grid.from_col_stream(lines) if args.by == "col" else grid.from_row_stream(lines)


# -- code ----------------------------------------------------------------------


def _code_info(c: LinearCode, args) -> int:
    print(f"(n, k) = ({c.n}, {c.k})")
    print(f"check symbols: {c.n - c.k}")
    _print_rate(c.k, c.n)
    try:
        if not c.k:
            print("min distance: undefined (the zero code has no nonzero codeword)")
        else:
            print(f"min distance: {c.min_distance()}")
            print(f"corrects up to: {c.error_capability()} errors")
    except CapacityError:
        print("min distance: skipped (code too large to enumerate)")
    if c.k <= _WORD_LIST_CAP:
        words = " ".join(sorted(str(w) for w in c.codewords))
        print(f"codewords: {words}")
    return 0


def _code_encode(c: LinearCode, args) -> int:
    print(c.encode(BitVector.from_string(args.message)))
    return 0


def _code_decode(c: LinearCode, args) -> int:
    y = BitVector.from_string(args.word)
    if args.strategy == "approx":
        word = approx_decode(c, y)
        print(f"codeword: {word}")
    else:
        word, err = c.decode(y)
        print(f"codeword: {word}")
        print(f"error: {err}")
    return DETECTED_ERROR if word != y else 0


# -- super ----------------------------------------------------------------------


def _super_new(sc: SuperRowCode | SuperColumnCode, args) -> int:
    from .super_codes import SuperRowCode

    shape = "row" if isinstance(sc, SuperRowCode) else "column"
    print(f"{shape} composition of {len(sc)} components")
    for i, c in enumerate(sc.components):
        print(f"  component {i}: ({c.n}, {c.k})")
    print(f"cardinality: {sc.cardinality()}")
    return _super_rate(sc, args)


def _super_encode(sc: SuperRowCode | SuperColumnCode, args) -> int:
    print(sc.encode(to_super_codeword(parse_super_word(args.messages)).segments))
    return 0


def _super_decode(sc: SuperRowCode | SuperColumnCode, args) -> int:
    received = to_super_codeword(parse_super_word(args.word))
    word, err = sc.decode(received)
    print(f"codeword: {word}")
    print(f"error: {err}")
    return DETECTED_ERROR if word != received else 0


def _super_rate(sc: SuperRowCode | SuperColumnCode, args) -> int:
    _print_rate(sum(c.k for c in sc.components), sum(c.n for c in sc.components))
    return 0


def _super_dual(sc: SuperRowCode | SuperColumnCode, args) -> int:
    from .super_codes import SuperRowCode

    if not isinstance(sc, SuperRowCode):
        raise SpecError("dual is defined for row compositions")
    dual = sc.dual()
    for i, c in enumerate(dual.components):
        if c.k <= _WORD_LIST_CAP:
            words = " ".join(sorted(str(w) for w in c.codewords))
            print(f"component {i} dual ({c.n}, {c.k}): {words}")
        else:
            print(f"component {i} dual: ({c.n}, {c.k})")
    return 0


# -- grid -------------------------------------------------------------------------


def _grid_encode(grid: GridCode, args) -> int:
    messages = [to_super_codeword(parse_super_word(ln)).segments
                for ln in _read_lines(args.messages_file)]
    for line in grid.encode(messages).to_row_stream():
        print(line)
    return 0


def _grid_decode(grid: GridCode, args) -> int:
    decoded, errors = grid.decode(_read_stream(args, grid))
    for line in decoded.to_row_stream():
        print(line)
    total = sum(e.weight() for row in errors.cells for e in row if e is not None)
    print(f"corrected bit errors: {total}")
    return DETECTED_ERROR if total else 0


def _grid_stream(grid: GridCode, args) -> int:
    word = _read_stream(args, grid)
    lines = word.to_col_stream() if args.to == "col" else word.to_row_stream()
    for line in lines:
        print(line)
    return 0


def _grid_vote(grid: GridCode, args) -> int:
    received = _read_stream(args, grid)
    print(grid.majority_vote(received))
    return 0


def _grid_reconcile(grid: GridCode, args) -> int:
    row_word = grid.from_row_stream(_read_lines(args.row_file))
    col_word = grid.from_col_stream(_read_lines(args.col_file))
    result = grid.simultaneous_reconcile(row_word, col_word)
    for line in result.word.to_row_stream():
        print(line)
    if result.disagreements:
        spots = " ".join(f"({i},{j})" for i, j in result.disagreements)
        print(f"disagreeing cells: {spots}")
        return DETECTED_ERROR
    return 0


def _grid_chart(grid: GridCode, args) -> int:
    from .grid import TrueChart, apply_chart

    word = _read_stream(args, grid)
    chart = TrueChart.from_text(_read_text(args.chart_file))
    for cell in apply_chart(word, chart):
        print(cell)
    return 0


def _grid_mask(grid: GridCode, args) -> int:
    from .grid import apply_mask, load_stencil, mask_from_ap

    word = _read_stream(args, grid)
    progression = (args.first, args.diff, args.last)
    if args.stencil is not None:
        if progression != (None, None, None):
            raise SpecError("give either --stencil or --first/--diff/--last, not both")
        mask = load_stencil(args.stencil)
    elif None not in progression:
        mask = mask_from_ap(*progression, grid.m * grid.n)
    else:
        raise SpecError("give either --stencil or all of --first/--diff/--last")
    for cell in apply_mask(word, mask):
        print(cell)
    return 0


# -- sim -------------------------------------------------------------------------


def _sim_run(grid: GridCode, args) -> int:
    from .channel import ChannelConfig, run_trial
    from .grid import GridCodeword

    if args.fill is not None:
        cell = BitVector.from_string(args.fill)
        sent = GridCodeword.from_rows([[cell] * grid.n for _ in range(grid.m)])
    elif args.stream_file is not None:
        sent = grid.from_row_stream(_read_lines(args.stream_file))
    else:
        raise SpecError("give the sent word via --fill or --stream-file")
    cfg = ChannelConfig(args.p, args.seed)
    report = run_trial(grid, sent, args.strategy, cfg, args.trials)
    print(f"trials: {report.trials}")
    print(f"decode_success: {report.decode_success}")
    print(f"undetected_error: {report.undetected_error}")
    print(f"residual_bit_errors: {report.residual_bit_errors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
