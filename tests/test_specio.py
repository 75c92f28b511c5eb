import json
import re
from pathlib import Path

import pytest

from gridfec.families import hamming
from gridfec.grid import GridCode, format_super_word
from gridfec.linear import LinearCode
from gridfec.specio import (
    MAX_CODE_LENGTH,
    SpecError,
    parse_spec,
    parse_super_word,
    to_super_codeword,
)
from gridfec.super_codes import SuperColumnCode, SuperRowCode

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str):
    return parse_spec((FIXTURES / name).read_text())


class TestParseSpec:
    def test_hamming_kind_matches_canonical_matrix(self):
        code = load("hamming3.json")
        assert isinstance(code, LinearCode)
        assert code.h == hamming(3).h

    def test_cyclic_kind(self):
        code = load("ex_1_2_10.json")
        assert (code.n, code.k) == (7, 4)
        assert code.is_cyclic()

    def test_parity_kind(self):
        code = load("ex_1_2_1.json")
        assert (code.n, code.k) == (7, 3)

    def test_generator_kind(self):
        code = parse_spec(json.dumps(
            {"kind": "generator", "rows": ["1000100", "0101000", "0010111"]}))
        assert (code.n, code.k) == (7, 3)

    def test_repetition_and_parity_check(self):
        assert parse_spec('{"kind": "repetition", "n": 6}').k == 1
        assert parse_spec('{"kind": "parity_check", "n": 4}').k == 3

    def test_row_composition(self):
        rc = load("ex_3_1_8.json")
        assert isinstance(rc, SuperRowCode)
        assert rc.cardinality() == 32

    def test_column_composition_with_named_codes(self):
        cc = load("ex_3_2_10.json")
        assert isinstance(cc, SuperColumnCode)
        assert [c.k for c in cc.components] == [6, 1, 4, 3]

    def test_grid_composition(self):
        grid = load("ex_3_3_1.json")
        assert isinstance(grid, GridCode)
        assert grid.column_lengths() == (6, 7)

    def test_identical_inline_cells_share_one_code(self):
        ham = {"kind": "hamming", "m": 3}
        cyc = {"kind": "cyclic", "n": 7, "g": "1101"}
        doc = {"shape": "grid", "codes": {"h": ham},
               "cells": [[ham, "h"], [cyc, {"m": 3, "kind": "hamming"}]]}
        grid = parse_spec(json.dumps(doc))
        assert grid.cells[0][0] is grid.cells[1][1]
        assert grid.cells[0][1] is not grid.cells[0][0]  # a named entry stays its own
        assert grid.cells[1][0] is not grid.cells[0][0]
        assert not grid.is_uniform()
        doc["cells"][1][0] = {"m": 3, "kind": "hamming"}
        assert parse_spec(json.dumps(doc)).is_uniform()

    def test_mismatched_row_checks_rejected(self):
        doc = {"shape": "row", "cells": [
            {"kind": "hamming", "m": 3}, {"kind": "repetition", "n": 6}]}
        with pytest.raises(SpecError, match=r"cell \(0, 1\)"):
            parse_spec(json.dumps(doc))

    def test_unknown_name_rejected(self):
        doc = {"shape": "row", "cells": ["nope"]}
        with pytest.raises(SpecError, match="cells\\[0\\]"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"shape": "grid", "codes": {"h": {"kind": "hamming", "m": 3}},
          "cells": [["h", "h", "h"], ["h", "h", "nope"]]},
         "cells[1][2]: unknown code name 'nope'"),
        ({"shape": "row", "cells": [{"kind": "hamming", "m": 3}, {"kind": "bogus"}]},
         "cells[1]: unknown code kind 'bogus'"),
        ({"shape": "grid", "cells": [[{"kind": "hamming", "m": 3}], [{"m": 3}]]},
         "cells[1][0]: expected an object with a 'kind' key"),
        ({"shape": "column", "cells": [{"kind": "repetition", "n": 2000}]},
         "cells[0]: repetition n=2000 exceeds the limit 1024 (codes are at most 1024 bits long)"),
    ])
    def test_cell_label_in_whole_message(self, doc, message):
        # A cell is named by its index path in the message, and nothing else changes.
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            parse_spec(json.dumps(doc))

    def test_syntax_error(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_spec("{not json")

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"kind": "repetition", "n": %s}' % ("1" * 5000)],
                             ids=["nested_past_the_recursion_limit", "integer_of_5000_digits"])
    def test_json_the_parser_refuses(self, text):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_spec(text)

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown code kind"):
            parse_spec('{"kind": "turbo"}')

    def test_bad_matrix_rows(self):
        with pytest.raises(SpecError):
            parse_spec('{"kind": "parity", "rows": ["10", "1"]}')

    @pytest.mark.parametrize("doc", [
        [],
        {"m": 3},
        {"kind": "cyclic", "n": 7},
        {"kind": "hamming", "m": 1},
        {"shape": "triangle", "cells": []},
        {"shape": "row", "codes": ["ham"], "cells": ["ham"]},
        {"shape": "row"},
        {"shape": "grid", "cells": [[{"kind": "hamming", "m": 3}], []]},
        {"shape": "grid", "cells": [{"kind": "hamming", "m": 3}]},
        {"shape": "row", "cells": []},
        {"kind": "parity", "rows": [101]},
        {"kind": "repetition", "n": True},
    ], ids=["array_document", "missing_kind", "cyclic_without_g", "hamming_m1",
            "unknown_shape", "non_object_codes", "missing_cells", "ragged_grid_cells",
            "non_array_grid_rows", "empty_row_cells", "non_string_rows", "boolean_n"])
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(SpecError):
            parse_spec(json.dumps(doc))


class TestSizeCap:
    HAMMING_M = (MAX_CODE_LENGTH + 1).bit_length() - 1  # largest m with 2^m - 1 <= cap

    @pytest.mark.parametrize("doc, key, limit", [
        ({"kind": "hamming", "m": HAMMING_M + 1}, "m", HAMMING_M),
        ({"kind": "repetition", "n": MAX_CODE_LENGTH + 1}, "n", MAX_CODE_LENGTH),
        ({"kind": "parity_check", "n": MAX_CODE_LENGTH + 1}, "n", MAX_CODE_LENGTH),
        ({"kind": "cyclic", "n": MAX_CODE_LENGTH + 1, "g": "11"}, "n", MAX_CODE_LENGTH),
    ])
    def test_just_over_the_cap_rejected(self, doc, key, limit):
        message = f"{doc['kind']} {key}={doc[key]} exceeds the limit {limit}"
        with pytest.raises(SpecError, match=message):
            parse_spec(json.dumps(doc))

    def test_hamming_cap_is_the_length_cap(self):
        assert (1 << self.HAMMING_M) - 1 <= MAX_CODE_LENGTH < (1 << (self.HAMMING_M + 1)) - 1
        assert parse_spec(json.dumps({"kind": "hamming", "m": self.HAMMING_M})).n \
            == (1 << self.HAMMING_M) - 1

    def test_cap_applies_inside_compositions(self):
        doc = {"shape": "row", "codes": {"big": {"kind": "hamming", "m": 40}},
               "cells": ["big"]}
        with pytest.raises(SpecError, match="codes\\['big'\\]: hamming m=40"):
            parse_spec(json.dumps(doc))


class TestSuperWordSyntax:
    def test_two_segments(self):
        segs = parse_super_word("1011|11011")
        assert [len(s) for s in segs] == [4, 5]
        assert str(to_super_codeword(segs)) == "1011|11011"

    def test_single_segment(self):
        assert len(parse_super_word("0000")) == 1

    def test_absent_cell_token(self):
        segs = parse_super_word("10|·|111")
        assert segs[1] is None
        assert format_super_word(segs) == "10|·|111"

    def test_empty_segment_rejected(self):
        with pytest.raises(SpecError):
            parse_super_word("10||111")

    def test_illegal_character_rejected(self):
        with pytest.raises(SpecError):
            parse_super_word("10|1x1")

    def test_roundtrip(self):
        for text in ("1011|11011", "0|1|00", "·|101"):
            assert format_super_word(parse_super_word(text)) == text

    def test_absent_rejected_in_super_codeword(self):
        with pytest.raises(SpecError):
            to_super_codeword(parse_super_word("10|·"))

    def test_all_fixture_specs_parse(self):
        for path in FIXTURES.glob("*.json"):
            parse_spec(path.read_text())
