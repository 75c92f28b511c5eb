"""Golden-example reproduction through the command-line interface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import gridfec
from gridfec import linear
from gridfec.channel import STRATEGIES, ChannelConfig, run_trial
from gridfec import cli
from gridfec.cli import _build_parser, _print_rate, main
from gridfec.gf2 import BitVector
from gridfec.grid import GridCode, GridCodeword
from gridfec.specio import parse_spec

FIXTURES = Path(__file__).parent / "fixtures"
BV = BitVector.from_string


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv: str) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().out


class TestParserReuse:
    def test_a_refused_argv_leaves_the_parser_as_built(self, capsys):
        info = ["code", "info", "--spec", fx("ex_1_2_1.json")]
        _build_parser.cache_clear()
        fresh = run(capsys, *info)
        with pytest.raises(SystemExit) as exc:
            main(["code", "decode", "--spec", fx("ex_1_2_1.json"), "--strategy", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *info) == fresh
        assert _build_parser.cache_info().misses == 1

    def test_help_screens_are_unchanged_by_reuse(self, capsys):
        def help_text() -> str:
            with pytest.raises(SystemExit):
                main(["code", "decode", "--help"])
            return capsys.readouterr().out

        _build_parser.cache_clear()
        fresh = help_text()
        run(capsys, "code", "info", "--spec", fx("ex_1_2_1.json"))
        assert help_text() == fresh


class TestCodeCommands:
    def test_encode_worked_message(self, capsys):
        rc, out = run(capsys, "code", "encode", "--spec", fx("ex_1_2_1.json"),
                      "--message", "110")
        assert rc == 0
        assert out.strip() == "1101100"

    def test_encode_second_worked_message(self, capsys):
        rc, out = run(capsys, "code", "encode", "--spec", fx("ex_1_2_1.json"),
                      "--message", "101")
        assert rc == 0
        assert out.strip() == "1010011"

    def test_decode_worked_coset_case(self, capsys):
        rc, out = run(capsys, "code", "decode", "--spec", fx("ex_1_2_6.json"),
                      "--word", "11110")
        assert rc == 1  # error detected and corrected
        assert "codeword: 11010" in out
        assert "error: 00100" in out

    def test_decode_clean_word_exits_zero(self, capsys):
        rc, out = run(capsys, "code", "decode", "--spec", fx("ex_1_2_6.json"),
                      "--word", "11010")
        assert rc == 0
        assert "codeword: 11010" in out

    def test_decode_approx_strategy(self, capsys):
        rc, out = run(capsys, "code", "decode", "--spec", fx("ex_1_2_14.json"),
                      "--word", "1111", "--strategy", "approx")
        assert rc == 1
        assert "codeword: 1011" in out

    def test_decode_approx_on_single_row_generator_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "rep4.json"
        spec.write_text('{"kind": "repetition", "n": 4}')
        rc = main(["code", "decode", "--spec", str(spec), "--word", "1100",
                   "--strategy", "approx"])
        assert rc == 2
        assert "vanishing projection" in capsys.readouterr().err

    def test_info_on_the_zero_code(self, capsys, tmp_path):
        # n = 1, k = 0: no minimum distance, and the zero word is its one codeword.
        spec = tmp_path / "zero.json"
        spec.write_text('{"kind": "parity", "rows": ["1"]}')
        rc = main(["code", "info", "--spec", str(spec)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.splitlines() == [
            "(n, k) = (1, 0)", "check symbols: 1", "rate: 0/1",
            "min distance: undefined (the zero code has no nonzero codeword)",
            "codewords: 0"]

    def test_info_golden_output(self, capsys):
        rc, out = run(capsys, "code", "info", "--spec", fx("ex_1_2_10.json"))
        assert rc == 0
        assert out == (FIXTURES / "golden_code_info_cyclic.txt").read_text()

    def test_info_past_the_enumeration_guard(self, capsys, tmp_path):
        # A random (60, 30) code: both k and n - k exceed the guard of 24.
        rng = random.Random(60)
        rows = ["".join(rng.choice("01") for _ in range(60)) for _ in range(30)]
        spec = tmp_path / "random60.json"
        spec.write_text(json.dumps({"kind": "parity", "rows": rows}))
        code = parse_spec(spec.read_text())
        assert min(code.k, code.n - code.k) > 24
        rc, out = run(capsys, "code", "info", "--spec", str(spec))
        assert rc == 0
        assert "min distance: skipped (code too large to enumerate)\n" in out

    @pytest.mark.parametrize("m", [5, 10])
    def test_info_reports_distance_from_the_dual(self, capsys, tmp_path, m):
        spec = tmp_path / "hamming.json"
        spec.write_text(json.dumps({"kind": "hamming", "m": m}))
        rc, out = run(capsys, "code", "info", "--spec", str(spec))
        assert rc == 0
        assert "min distance: 3\n" in out

    def test_decode_past_twenty_check_bits(self, capsys, tmp_path):
        # repetition(30) has n - k = 29: one lookup walks only the weight-1 supports.
        spec = tmp_path / "repetition30.json"
        spec.write_text(json.dumps({"kind": "repetition", "n": 30}))
        rc, out = run(capsys, "code", "decode", "--spec", str(spec), "--word", "1" * 29 + "0")
        assert rc == 1
        assert out.splitlines() == [f"codeword: {'1' * 30}", f"error: {'0' * 29}1"]

    def test_validation_error_exits_two(self, capsys):
        rc = main(["code", "encode", "--spec", fx("ex_1_2_1.json"), "--message", "11"])
        assert rc == 2

    def test_oversized_spec_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "huge.json"
        spec.write_text('{"kind": "hamming", "m": 40}')
        rc = main(["code", "info", "--spec", str(spec)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spec: hamming m=40 exceeds the limit")
        assert "Traceback" not in err


NESTED = "[" * 100_000 + "]" * 100_000
# A 3x3 hamming(3) grid's row stream and one line of it; a 7x7 repetition(2)
# grid and its all-zero row stream.
HAM3_STREAM_LINE = "1010101|1010101|1010101\n"
HAM3_STREAM = HAM3_STREAM_LINE * 3
REP7X7_STREAM = ("|".join(["00"] * 7) + "\n") * 7
REP7X7 = json.dumps({"shape": "grid", "cells": [[{"kind": "repetition", "n": 2}] * 7] * 7})

# Refusals: argv (a name in the file table is written under tmp_path) and files.
REFUSALS = {
    "code_info_on_composition": (["code", "info", "--spec", fx("ex_3_1_8.json")], {}),
    "super_new_on_single_code": (["super", "new", "--spec", fx("hamming3.json")], {}),
    "grid_decode_on_row_composition": (
        ["grid", "decode", "--spec", fx("ex_3_1_8.json"), "--stream-file", "recv.txt"],
        {"recv.txt": "1011|11011\n"}),
    "super_dual_on_column_composition": (["super", "dual", "--spec", fx("ex_3_2_10.json")], {}),
    "sim_run_with_an_unknown_strategy": (
        ["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0000000", "--p", "0.1",
         "--trials", "1", "--strategy", "bogus"], {}),
    "sim_run_on_row_composition": (
        ["sim", "run", "--spec", fx("ex_3_1_8.json"), "--fill", "1011", "--p", "0.1",
         "--trials", "1", "--strategy", "per_cell_decode"], {}),
    "code_encode_on_grid_spec": (
        ["code", "encode", "--spec", fx("hamming3_grid.json"), "--message", "1010"], {}),
    "grid_mask_with_only_first": (
        ["grid", "mask", "--spec", fx("hamming3.json"), "--stream-file", "recv.txt",
         "--first", "1"],
        {"recv.txt": "0000000\n"}),
    "grid_mask_with_stencil_and_progression": (
        ["grid", "mask", "--spec", "rep7x7.json", "--stream-file", "recv.txt",
         "--stencil", "cross", "--first", "1", "--diff", "1", "--last", "2"],
        {"rep7x7.json": REP7X7, "recv.txt": REP7X7_STREAM}),
    "grid_mask_with_empty_stencil_and_progression": (
        ["grid", "mask", "--spec", "rep7x7.json", "--stream-file", "recv.txt",
         "--stencil", "", "--first", "1", "--diff", "1", "--last", "2"],
        {"rep7x7.json": REP7X7, "recv.txt": REP7X7_STREAM}),
    "grid_mask_with_zero_difference": (
        ["grid", "mask", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--first", "1", "--diff", "0", "--last", "2"], {"recv.txt": HAM3_STREAM}),
    "grid_mask_with_last_before_first": (
        ["grid", "mask", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--first", "3", "--diff", "1", "--last", "2"], {"recv.txt": HAM3_STREAM}),
    "grid_decode_with_too_few_row_lines": (
        ["grid", "decode", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt"],
        {"recv.txt": HAM3_STREAM_LINE * 2}),
    "grid_decode_with_too_many_column_lines": (
        ["grid", "decode", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--by", "col"],
        {"recv.txt": HAM3_STREAM_LINE * 4}),
    "grid_chart_empty": (
        ["grid", "chart", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--chart-file", "chart.txt"], {"recv.txt": HAM3_STREAM, "chart.txt": "\n"}),
    "grid_chart_with_differing_widths": (
        ["grid", "chart", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--chart-file", "chart.txt"], {"recv.txt": HAM3_STREAM, "chart.txt": "***\n**\n***\n"}),
    "grid_chart_with_an_illegal_character_before_a_short_row": (
        ["grid", "chart", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--chart-file", "chart.txt"], {"recv.txt": HAM3_STREAM, "chart.txt": "*x\n*\n"}),
    "super_encode_absent_message": (
        ["super", "encode", "--spec", fx("ex_3_1_8.json"), "--messages", "10|·"], {}),
    "grid_encode_absent_message": (
        ["grid", "encode", "--spec", fx("hamming3_grid.json"), "--messages-file", "msgs.txt"],
        {"msgs.txt": "1010|·|1111\n0001|1110|1011\n0100|0010|1000\n"}),
    "grid_encode_short_message_file": (
        ["grid", "encode", "--spec", fx("hamming3_grid.json"), "--messages-file", "msgs.txt"],
        {"msgs.txt": "1010|0110|1111\n0001|1110|1011\n"}),
    # One inline row a bit past MAX_CODE_LENGTH, refused before any matrix is
    # built: 100,000 bits would take `code encode` to about 1.2 GB.
    "code_encode_on_a_wide_inline_row": (
        ["code", "encode", "--spec", "wide.json", "--message", "0"],
        {"wide.json": json.dumps({"kind": "parity", "rows": ["1" * 1025]})}),
    "code_info_on_a_wide_inline_row": (
        ["code", "info", "--spec", "wide.json"],
        {"wide.json": json.dumps({"kind": "generator", "rows": ["1" * 100_000]})}),
    # 100,000 nested arrays pass json's recursion limit.
    "code_info_on_deeply_nested_json": (
        ["code", "info", "--spec", "nested.json"], {"nested.json": NESTED}),
    "grid_encode_on_deeply_nested_json": (
        ["grid", "encode", "--spec", "nested.json", "--messages-file", "msgs.txt"],
        {"nested.json": NESTED, "msgs.txt": "1010\n"}),
    "sim_run_on_deeply_nested_json": (
        ["sim", "run", "--spec", "nested.json", "--fill", "1010101", "--p", "0.1",
         "--trials", "1", "--strategy", "per_cell_decode"], {"nested.json": NESTED}),
    # Past int's default limit of 4300 digits for a decimal string.
    "code_info_on_a_5000_digit_integer": (
        ["code", "info", "--spec", "big.json"],
        {"big.json": '{"kind": "repetition", "n": %s}' % ("1" * 5000)}),
}


class TestRefusals:
    @pytest.mark.parametrize("argv, files", REFUSALS.values(), ids=list(REFUSALS))
    def test_one_error_line_and_exit_two(self, capsys, tmp_path, argv, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        rc = main([str(tmp_path / a) if a in files else a for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


# One worked command per verb, in the layout of REFUSALS.
HAM3_MESSAGES = "1010|0110|1111\n0001|1110|1011\n0100|0010|1000\n"
WORKED = {
    "code_info": (["code", "info", "--spec", fx("ex_1_2_10.json")], {}),
    "code_encode": (["code", "encode", "--spec", fx("ex_1_2_1.json"), "--message", "110"], {}),
    "code_decode": (["code", "decode", "--spec", fx("ex_1_2_6.json"), "--word", "11110"], {}),
    "code_decode_approx": (
        ["code", "decode", "--spec", fx("ex_1_2_14.json"), "--word", "1111",
         "--strategy", "approx"], {}),
    "super_new": (["super", "new", "--spec", fx("ex_3_1_1.json")], {}),
    "super_encode": (["super", "encode", "--spec", fx("ex_3_1_8.json"), "--messages", "10|110"],
                     {}),
    "super_decode": (["super", "decode", "--spec", fx("ex_3_1_8.json"), "--word", "1111|11111"],
                     {}),
    "super_rate": (["super", "rate", "--spec", fx("ex_3_2_10.json")], {}),
    "super_dual": (["super", "dual", "--spec", fx("ex_4_8_row.json")], {}),
    "grid_encode": (
        ["grid", "encode", "--spec", fx("hamming3_grid.json"), "--messages-file", "msgs.txt"],
        {"msgs.txt": HAM3_MESSAGES}),
    "grid_decode": (
        ["grid", "decode", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt"],
        {"recv.txt": HAM3_STREAM}),
    "grid_stream": (
        ["grid", "stream", "--spec", fx("ex_3_3_1.json"), "--stream-file",
         fx("ex_3_3_1_rows.txt"), "--to", "col"], {}),
    "grid_vote": (
        ["grid", "vote", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt"],
        {"recv.txt": "0100101|0100101|1111111\n0100101|0000001|0100101\n"
                     "0100101|0100101|0100101\n"}),
    "grid_reconcile": (
        ["grid", "reconcile", "--spec", fx("ex_3_3_1.json"), "--row-file",
         fx("ex_3_3_1_rows.txt"), "--col-file", "cols.txt"],
        {"cols.txt": "100001|111011|111100\n0100101|1010101|1111100\n"}),
    "grid_chart": (
        ["grid", "chart", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--chart-file", "chart.txt"], {"recv.txt": HAM3_STREAM, "chart.txt": "*.*\n.*.\n*.*\n"}),
    "grid_mask_progression": (
        ["grid", "mask", "--spec", fx("hamming3_grid.json"), "--stream-file", "recv.txt",
         "--by", "col", "--first", "1", "--diff", "4", "--last", "9"], {"recv.txt": HAM3_STREAM}),
    "grid_mask_stencil": (
        ["grid", "mask", "--spec", "rep7x7.json", "--stream-file", "recv.txt",
         "--stencil", "cross"], {"rep7x7.json": REP7X7, "recv.txt": REP7X7_STREAM}),
    "sim_run": (
        ["sim", "run", "--spec", fx("hamming3_grid.json"), "--fill", "1010101", "--p", "0.05",
         "--trials", "50", "--seed", "7", "--strategy", "majority_vote"], {}),
}

# argv that argparse itself answers or refuses, at each level of the tree.
INFO = ["code", "info", "--spec", fx("hamming3.json")]
PARSER_EDGES = {
    "no_arguments": ([], {}),
    "top_help": (["-h"], {}),
    "group_help": (["code", "--help"], {}),
    "verb_help": (["code", "decode", "-h"], {}),
    "verb_help_after_options": (INFO + ["--help"], {}),
    "group_without_verb": (["grid"], {}),
    "unknown_group": (["bogus", "info"], {}),
    "unknown_verb": (["code", "bogus", "--spec", fx("hamming3.json")], {}),
    "option_before_verb": (["code", "--spec", fx("hamming3.json"), "info"], {}),
    "trailing_unknown_option": (INFO + ["--bogus"], {}),
    "trailing_positional": (INFO + ["extra"], {}),
    "unknown_option_and_bad_choice": (
        ["code", "decode", "--spec", fx("hamming3.json"), "--word", "0", "--bogus",
         "--strategy", "nope"], {}),
    "abbreviated_option": (["code", "info", "--sp", fx("hamming3.json")], {}),
    "ambiguous_abbreviation": (
        ["grid", "mask", "--spec", fx("hamming3.json"), "--st", "recv.txt"], {}),
    "missing_required_option": (["code", "encode", "--spec", fx("hamming3.json")], {}),
    "bad_choice": (["code", "decode", "--spec", fx("hamming3.json"), "--word", "0",
                    "--strategy", "nope"], {}),
    "bad_type": (["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0000000",
                  "--p", "x", "--trials", "1", "--strategy", "majority_vote"], {}),
    "exclusive_options": (["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0000000",
                           "--stream-file", "x", "--p", "0", "--trials", "1",
                           "--strategy", "majority_vote"], {}),
    "double_dash_at_end": (INFO + ["--"], {}),
    "double_dash_before_options": (["code", "info", "--", "--spec", fx("hamming3.json")], {}),
}
DISPATCH_CORPUS = {**WORKED, **REFUSALS, **PARSER_EDGES}


def outcome(capsys, argv) -> tuple[object, str, str]:
    """main's exit status (returned or raised), stdout and stderr."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDirectDispatch:
    """main parses a known verb with that verb's own parser; emptying the verb
    table forces every argv through the full parser tree."""

    @pytest.mark.parametrize("argv, files", WORKED.values(), ids=list(WORKED))
    def test_a_worked_command_skips_the_full_tree(self, capsys, monkeypatch, tmp_path,
                                                  argv, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)

        def refuse(*args):
            raise AssertionError("the full parser tree ran")

        monkeypatch.setattr(_build_parser(), "parse_args", refuse)
        rc, out, err = outcome(capsys, [str(tmp_path / a) if a in files else a for a in argv])
        assert rc in (0, 1) and out and not err

    @pytest.mark.parametrize("argv, files", DISPATCH_CORPUS.values(),
                             ids=list(DISPATCH_CORPUS))
    def test_same_outcome_as_the_full_tree(self, capsys, monkeypatch, tmp_path, argv, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        direct = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_VERBS", {})
        assert outcome(capsys, argv) == direct

    def test_an_unknown_option_is_refused_by_the_top_parser(self, capsys):
        rc, out, err = outcome(capsys, INFO + ["--bogus"])
        assert (rc, out) == (2, "")
        assert err.endswith("\ngridfec: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("extra", [[], ["--bogus"]], ids=["worked", "unknown_option"])
    def test_argv_from_sys_argv(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(sys, "argv", ["gridfec", *INFO, *extra])
        direct = outcome(capsys, None)
        monkeypatch.setattr(cli, "_VERBS", {})
        assert outcome(capsys, None) == direct
        assert direct[0] == (2 if extra else 0)


# argv per input-file flag: "bad.txt" starts with byte 0xff, and the other
# files are valid UTF-8 for the 3x3 hamming(3) grid.
INPUT_FILE_FLAGS = {
    "spec": ["code", "info", "--spec", "bad.txt"],
    "stream_file": ["grid", "decode", "--spec", "spec.json", "--stream-file", "bad.txt"],
    "sim_stream_file": ["sim", "run", "--spec", "spec.json", "--stream-file", "bad.txt",
                        "--p", "0.1", "--trials", "1", "--strategy", "per_cell_decode"],
    "messages_file": ["grid", "encode", "--spec", "spec.json", "--messages-file", "bad.txt"],
    "row_file": ["grid", "reconcile", "--spec", "spec.json", "--row-file", "bad.txt",
                 "--col-file", "stream.txt"],
    "col_file": ["grid", "reconcile", "--spec", "spec.json", "--row-file", "stream.txt",
                 "--col-file", "bad.txt"],
    "chart_file": ["grid", "chart", "--spec", "spec.json", "--stream-file", "stream.txt",
                   "--chart-file", "bad.txt"],
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv", INPUT_FILE_FLAGS.values(), ids=list(INPUT_FILE_FLAGS))
    def test_one_error_line_naming_the_file(self, capsys, tmp_path, argv):
        stream = "1010101|1010101|1010101\n" * 3
        (tmp_path / "spec.json").write_text((FIXTURES / "hamming3_grid.json").read_text())
        (tmp_path / "stream.txt").write_text(stream)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff" + stream.encode())
        rc = main([str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestCosetWalkBudget:
    """A coset-leader walk past its budget: exit 2, one error line, no output."""

    def test_decode_exits_two(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 9)
        spec = tmp_path / "repetition9.json"
        spec.write_text(json.dumps({"kind": "repetition", "n": 9}))
        rc = main(["code", "decode", "--spec", str(spec), "--word", "110000000"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: the coset-leader walk passed its budget of 9 supports\n"

    def test_sim_run_stops_mid_run(self, capsys, monkeypatch, tmp_path):
        # Nine supports find the weight-1 leaders: seed 4's first six trials flip at
        # most one bit each and finish, and its seventh, of weight 3, stops the run.
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 9)
        spec = tmp_path / "repetition9.json"
        spec.write_text(json.dumps({"kind": "repetition", "n": 9}))
        grid = GridCode([[parse_spec(spec.read_text())]])
        sent = GridCodeword.from_rows([[BitVector.zeros(9)]])
        assert run_trial(grid, sent, "per_cell_decode", ChannelConfig(0.1, 4), 6).trials == 6
        rc = main(["sim", "run", "--spec", str(spec), "--fill", "0" * 9, "--p", "0.1",
                   "--trials", "200", "--seed", "4", "--strategy", "per_cell_decode"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("strategy", ["per_cell_decode", "simultaneous"])
    def test_sim_run_on_a_grid_exits_two(self, capsys, monkeypatch, strategy):
        # The error is raised inside the trial loop's memo rule (per-cell decoding)
        # or its arbitration (simultaneous) and still ends in one error line.
        monkeypatch.setattr(linear, "COSET_WALK_BUDGET", 2)
        rc = main(["sim", "run", "--spec", str(FIXTURES / "hamming3_grid.json"),
                   "--fill", "1010101", "--p", "0.5", "--trials", "100", "--seed", "1",
                   "--strategy", strategy])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: the coset-leader walk passed its budget of 2 supports\n"


# (I_12 | 1^12): k = 12, so `code info` lists all 4096 codewords, about 100 KB.
WIDE_LISTING = {"kind": "generator",
                "rows": [format(1 << 11 - i, "012b") + "1" * 12 for i in range(12)]}


class TestClosedStdout:
    @pytest.mark.parametrize("spec", [{"kind": "hamming", "m": 3}, WIDE_LISTING],
                             ids=["buffered", "past_the_buffer"])
    def test_exit_141_and_no_error_line(self, tmp_path, spec):
        # A pipe whose reader is closed: the first write to it raises BrokenPipeError,
        # in a print once the output outgrows stdout's buffer, else in main's flush.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(gridfec.__file__).parents[1])
        try:
            proc = subprocess.run([sys.executable, "-m", "gridfec.cli", "code", "info",
                                   "--spec", str(path)],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestRateLine:
    def test_matches_the_reduced_fraction(self, capsys):
        for n in range(1, 40):
            for k in range(n + 1):
                _print_rate(k, n)
                rate = Fraction(k, n)
                want = f"rate: {k}/{n}" if rate.denominator == n else f"rate: {k}/{n} = {rate}"
                assert capsys.readouterr().out == want + "\n"

    def test_whole_rate(self, capsys):
        _print_rate(5, 5)
        assert capsys.readouterr().out == "rate: 5/5 = 1\n"


class TestSuperCommands:
    def test_new_summary(self, capsys):
        rc, out = run(capsys, "super", "new", "--spec", fx("ex_3_1_1.json"))
        assert rc == 0
        assert "cardinality: 4096" in out
        assert "rate: 12/21 = 4/7" in out

    def test_encode(self, capsys):
        rc, out = run(capsys, "super", "encode", "--spec", fx("ex_3_1_8.json"),
                      "--messages", "10|110")
        assert rc == 0
        assert out.strip() == "1011|11011"

    def test_decode_worked_case(self, capsys):
        rc, out = run(capsys, "super", "decode", "--spec", fx("ex_3_1_8.json"),
                      "--word", "1111|11111")
        assert rc == 1
        assert "codeword: 1011|11011" in out
        assert "error: 0100|00100" in out

    def test_rate_column_composition(self, capsys):
        rc, out = run(capsys, "super", "rate", "--spec", fx("ex_3_2_10.json"))
        assert rc == 0
        assert out.strip() == "rate: 14/28 = 1/2"

    def test_dual_golden_output(self, capsys):
        rc, out = run(capsys, "super", "dual", "--spec", fx("ex_4_8_row.json"))
        assert rc == 0
        assert out == (FIXTURES / "golden_super_dual_4_8.txt").read_text()

    def test_constraint_violation_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "bad_row.json"
        spec.write_text('{"shape": "row", "cells": [{"kind": "hamming", "m": 3},'
                        ' {"kind": "repetition", "n": 7}]}')
        rc = main(["super", "new", "--spec", str(spec)])
        assert rc == 2


class TestGridCommands:
    def test_stream_row_to_col_golden(self, capsys):
        rc, out = run(capsys, "grid", "stream", "--spec", fx("ex_3_3_1.json"),
                      "--stream-file", fx("ex_3_3_1_rows.txt"), "--to", "col")
        assert rc == 0
        assert out == (FIXTURES / "golden_col_stream_3_3_1.txt").read_text()

    def test_stream_col_to_row_roundtrip(self, capsys, tmp_path):
        col_file = tmp_path / "cols.txt"
        col_file.write_text("100001|111011|111100\n0100101|1010101|1111100\n")
        rc, out = run(capsys, "grid", "stream", "--spec", fx("ex_3_3_1.json"),
                      "--stream-file", str(col_file), "--by", "col", "--to", "row")
        assert rc == 0
        assert out == (FIXTURES / "ex_3_3_1_rows.txt").read_text()

    def test_encode_then_decode(self, capsys, tmp_path):
        messages = tmp_path / "msgs.txt"
        messages.write_text("1010|0110|1111\n0001|1110|1011\n0100|0010|1000\n")
        rc, out = run(capsys, "grid", "encode", "--spec", fx("hamming3_grid.json"),
                      "--messages-file", str(messages))
        assert rc == 0
        sent = tmp_path / "sent.txt"
        sent.write_text(out)
        rc, decoded = run(capsys, "grid", "decode", "--spec", fx("hamming3_grid.json"),
                          "--stream-file", str(sent))
        assert rc == 0
        assert decoded.splitlines()[:3] == out.splitlines()
        assert "corrected bit errors: 0" in decoded

    def test_decode_corrupted_exits_one(self, capsys, tmp_path):
        messages = tmp_path / "msgs.txt"
        messages.write_text("1010|0110|1111\n0001|1110|1011\n0100|0010|1000\n")
        rc, out = run(capsys, "grid", "encode", "--spec", fx("hamming3_grid.json"),
                      "--messages-file", str(messages))
        lines = out.splitlines()
        first = list(lines[0])
        first[0] = "1" if first[0] == "0" else "0"
        received = tmp_path / "recv.txt"
        received.write_text("\n".join(["".join(first)] + lines[1:]) + "\n")
        rc, decoded = run(capsys, "grid", "decode", "--spec", fx("hamming3_grid.json"),
                          "--stream-file", str(received))
        assert rc == 1
        assert decoded.splitlines()[:3] == lines
        assert "corrected bit errors: 1" in decoded

    def test_vote(self, capsys, tmp_path):
        stream = tmp_path / "recv.txt"
        stream.write_text("0100101|0100101|1111111\n"
                          "0100101|0000001|0100101\n"
                          "0100101|0100101|0100101\n")
        rc, out = run(capsys, "grid", "vote", "--spec", fx("hamming3_grid.json"),
                      "--stream-file", str(stream))
        assert rc == 0
        assert out.strip() == "0100101"

    def test_reconcile_agreeing_copies(self, capsys, tmp_path):
        rows = tmp_path / "rows.txt"
        cols = tmp_path / "cols.txt"
        rows.write_text((FIXTURES / "ex_3_3_1_rows.txt").read_text())
        cols.write_text("100001|111011|111100\n0100101|1010101|1111100\n")
        rc, out = run(capsys, "grid", "reconcile", "--spec", fx("ex_3_3_1.json"),
                      "--row-file", str(rows), "--col-file", str(cols))
        assert rc == 0
        assert out.splitlines() == (FIXTURES / "ex_3_3_1_rows.txt").read_text().splitlines()

    def test_reconcile_disagreement_exits_one(self, capsys, tmp_path):
        rows = tmp_path / "rows.txt"
        cols = tmp_path / "cols.txt"
        rows.write_text("0100101|0100101\n")
        cols.write_text("0100101\n0100111\n")  # column copy corrupts cell (0, 1)
        spec = tmp_path / "grid.json"
        spec.write_text('{"shape": "grid", "cells": [[{"kind": "hamming", "m": 3},'
                        ' {"kind": "hamming", "m": 3}]]}')
        rc, out = run(capsys, "grid", "reconcile", "--spec", str(spec),
                      "--row-file", str(rows), "--col-file", str(cols))
        assert rc == 1
        assert out.splitlines()[0] == "0100101|0100101"
        assert "disagreeing cells: (0,1)" in out

    def test_reconcile_column_segment_count_exits_two(self, capsys, tmp_path):
        rows = tmp_path / "rows.txt"
        cols = tmp_path / "cols.txt"
        rows.write_text((FIXTURES / "ex_3_3_1_rows.txt").read_text())
        cols.write_text("100001|111011\n0100101|1010101|1111100\n")
        rc = main(["grid", "reconcile", "--spec", fx("ex_3_3_1.json"),
                   "--row-file", str(rows), "--col-file", str(cols)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: column 0 has 2 segments, expected 3" in err
        assert "Traceback" not in err

    def test_chart_selection(self, capsys, tmp_path):
        grid_spec = tmp_path / "grid.json"
        cells = ", ".join('{"kind": "parity_check", "n": 4}' for _ in range(11))
        grid_spec.write_text('{"shape": "grid", "cells": [%s]}'
                             % ", ".join(f"[{cells}]" for _ in range(8)))
        stream = tmp_path / "word.txt"
        rows = []
        for i in range(8):
            rows.append("|".join(f"{(i + j) % 2}{(i + j + 1) % 2}{(i + j) % 2}{(i + j + 1) % 2}"
                                 for j in range(11)))
        stream.write_text("\n".join(rows) + "\n")
        rc, out = run(capsys, "grid", "chart", "--spec", str(grid_spec),
                      "--stream-file", str(stream), "--chart-file", fx("chart_4_3.txt"))
        assert rc == 0
        assert len(out.splitlines()) == 31

    def test_mask_progressions(self, capsys, tmp_path):
        grid_spec = tmp_path / "grid.json"
        cells = ", ".join('{"kind": "repetition", "n": 2}' for _ in range(7))
        grid_spec.write_text('{"shape": "grid", "cells": [%s]}'
                             % ", ".join(f"[{cells}]" for _ in range(7)))
        stream = tmp_path / "word.txt"
        lines = []
        for i in range(7):
            lines.append("|".join("11" if (i * 7 + j) % 3 == 0 else "00" for j in range(7)))
        stream.write_text("\n".join(lines) + "\n")
        rc, out = run(capsys, "grid", "mask", "--spec", str(grid_spec),
                      "--stream-file", str(stream),
                      "--first", "4", "--diff", "7", "--last", "46")
        assert rc == 0
        expected = ["11" if (idx - 1) % 3 == 0 else "00"
                    for idx in (4, 11, 18, 25, 32, 39, 46)]
        assert out.splitlines() == expected

    def test_mask_stencil(self, capsys, tmp_path):
        grid_spec = tmp_path / "grid.json"
        cells = ", ".join('{"kind": "repetition", "n": 2}' for _ in range(7))
        grid_spec.write_text('{"shape": "grid", "cells": [%s]}'
                             % ", ".join(f"[{cells}]" for _ in range(7)))
        stream = tmp_path / "word.txt"
        stream.write_text("\n".join(["|".join(["00"] * 7)] * 7) + "\n")
        rc, out = run(capsys, "grid", "mask", "--spec", str(grid_spec),
                      "--stream-file", str(stream), "--stencil", "cross")
        assert rc == 0
        assert len(out.splitlines()) == 13

    def test_mask_last_beyond_grid_exits_two(self, capsys, tmp_path):
        # Refused before the progression is built: 10**18 indices would not fit in memory.
        stream = tmp_path / "word.txt"
        stream.write_text("00000\n")
        rc = main(["grid", "mask", "--spec", fx("ex_1_2_6.json"), "--stream-file", str(stream),
                   "--first", "1", "--diff", "1", "--last", str(10**18)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"last term {10**18} exceeds the grid's cell count 1" in err
        assert "Traceback" not in err

    def test_mask_first_below_one_exits_two(self, capsys, tmp_path):
        stream = tmp_path / "word.txt"
        stream.write_text("00000\n")
        rc = main(["grid", "mask", "--spec", fx("ex_1_2_6.json"), "--stream-file", str(stream),
                   "--first", str(-10**18), "--diff", "1", "--last", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1-based" in err and "Traceback" not in err

    def test_mask_stencil_outside_package_exits_two(self, capsys, tmp_path):
        # A name that walks out of the stencil directory to a readable .txt
        # file whose line is not a cell index.
        (tmp_path / "bad.txt").write_text("not a cell index\n")
        name = os.path.relpath(tmp_path / "bad", str(resources.files("gridfec.stencils")))
        stream = tmp_path / "word.txt"
        stream.write_text("00000\n")
        rc = main(["grid", "mask", "--spec", fx("ex_1_2_6.json"),
                   "--stream-file", str(stream), "--stencil", name])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown stencil" in err and "Traceback" not in err


class TestSimCommand:
    def test_p_zero_all_success(self, capsys):
        rc, out = run(capsys, "sim", "run", "--spec", fx("hamming3.json"),
                      "--fill", "0100101", "--p", "0", "--trials", "25",
                      "--seed", "3", "--strategy", "per_cell_decode")
        assert rc == 0
        assert "trials: 25" in out
        assert "decode_success: 25" in out

    def test_deterministic_given_seed(self, capsys):
        args = ["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0100101",
                "--p", "0.05", "--trials", "200", "--seed", "17",
                "--strategy", "per_cell_decode"]
        rc1, out1 = run(capsys, *args)
        rc2, out2 = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_vote_strategy_on_grid(self, capsys):
        rc, out = run(capsys, "sim", "run", "--spec", fx("hamming3_grid.json"),
                      "--fill", "0100101", "--p", "0.03", "--trials", "100",
                      "--seed", "5", "--strategy", "majority_vote")
        assert rc == 0
        success = int(next(l for l in out.splitlines()
                           if l.startswith("decode_success")).split(": ")[1])
        assert success >= 95

    def test_stream_file_matches_run_trial(self, capsys, tmp_path):
        grid = parse_spec(Path(fx("ex_3_3_1.json")).read_text())
        sent = grid.encode([[BV("101"), BV("0110")], [BV("11"), BV("101")],
                            [BV("011"), BV("1001")]])
        stream = tmp_path / "sent.txt"
        stream.write_text("\n".join(sent.to_row_stream()) + "\n")
        rc, out = run(capsys, "sim", "run", "--spec", fx("ex_3_3_1.json"),
                      "--stream-file", str(stream), "--p", "0.04", "--trials", "60",
                      "--seed", "9", "--strategy", "simultaneous")
        assert rc == 0
        r = run_trial(grid, sent, "simultaneous", ChannelConfig(0.04, 9), 60)
        assert out.splitlines() == [
            f"trials: {r.trials}", f"decode_success: {r.decode_success}",
            f"undetected_error: {r.undetected_error}",
            f"residual_bit_errors: {r.residual_bit_errors}"]

    def test_unknown_strategy_error_names_every_strategy(self, capsys):
        rc = main(["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0000000",
                   "--p", "0.1", "--trials", "1", "--strategy", "bogus"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: unknown strategy 'bogus'")
        assert all(name in err for name in STRATEGIES)

    def test_help_names_every_strategy(self, capsys):
        # The parser lists the strategies without importing channel; this keeps
        # that list equal to channel.STRATEGIES.
        with pytest.raises(SystemExit):
            main(["sim", "run", "-h"])
        assert "{" + ",".join(STRATEGIES) + "}" in capsys.readouterr().out

    def test_no_sent_word_exits_two(self, capsys):
        rc = main(["sim", "run", "--spec", fx("hamming3.json"), "--p", "0.1",
                   "--trials", "5", "--seed", "1", "--strategy", "per_cell_decode"])
        assert rc == 2
        assert "give the sent word via --fill or --stream-file" in capsys.readouterr().err

    def test_fill_and_stream_file_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "run", "--spec", fx("hamming3.json"), "--fill", "0100101",
                  "--stream-file", "sent.txt", "--p", "0.1", "--trials", "5",
                  "--strategy", "per_cell_decode"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
        assert "not allowed with argument" in captured.err

    def test_non_codeword_fill_rejected(self, capsys):
        rc = main(["sim", "run", "--spec", fx("hamming3.json"), "--fill", "1111110",
                   "--p", "0.1", "--trials", "5", "--seed", "1",
                   "--strategy", "per_cell_decode"])
        assert rc == 2
