"""JSON code/composition specifications and the '|'-separated word syntax.

A code spec is an object with a "kind" key:

    {"kind": "parity",       "rows": ["0101000", ...]}   parity-check rows
    {"kind": "generator",    "rows": ["1000100", ...]}   generator rows
    {"kind": "hamming",      "m": 3}
    {"kind": "repetition",   "n": 6}
    {"kind": "parity_check", "n": 4}
    {"kind": "cyclic",       "n": 7, "g": "1011"}        g has x^i at index i

A composition spec is an object with a "shape" key ("row", "column" or
"grid"); "cells" holds code specs (or names defined in an optional "codes"
table): a list for row/column shapes, a rectangular array of arrays for
grids.  Identical inline cell specs, in any key order, share one LinearCode.
A code longer than MAX_CODE_LENGTH bits is refused before anything is built:
a family kind by its size key, a parity or generator matrix by its row width.
Words are '0'/'1' runs joined by '|', an absent grid cell the token '·'; the
grid module reads and writes them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .families import CyclicSpec, cyclic_from_poly, hamming, parity_check, repetition
from .gf2 import BitMatrix, BitVector, Gf2Error, Gf2Poly
from .linear import MAX_CODE_LENGTH, CodeError, LinearCode

# The composition modules are imported where a composition or super word is
# read, so that a single-code spec loads neither and a grid spec only grid.
if TYPE_CHECKING:
    from typing import Union

    from .grid import GridCode
    from .super_codes import SuperColumnCode, SuperCodeword, SuperRowCode

    AnyCode = Union[LinearCode, SuperRowCode, SuperColumnCode, GridCode]


# The key of an inline cell spec; json.dumps would build an encoder per cell.
_cell_key = json.JSONEncoder(sort_keys=True).encode


class SpecError(ValueError):
    """Raised on malformed or constraint-violating spec documents."""


def parse_spec(text: str) -> AnyCode:
    """Parse a JSON document into a code or composition."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Bad syntax, an integer past int's digit limit, or nesting past the recursion limit.
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    if "shape" in doc:
        return _parse_composition(doc)
    return _parse_code(doc, "")


def _parse_code(doc, where: str) -> LinearCode:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError(f"{where or 'spec'}: expected an object with a 'kind' key")
    kind = doc["kind"]
    try:
        if kind == "parity":
            return LinearCode.from_parity(_matrix(doc, where))
        if kind == "generator":
            return LinearCode.from_generator(_matrix(doc, where))
        if kind == "hamming":
            return hamming(_capped(doc, "m", where))
        if kind == "repetition":
            return repetition(_capped(doc, "n", where))
        if kind == "parity_check":
            return parity_check(_capped(doc, "n", where))
        if kind == "cyclic":
            n = _capped(doc, "n", where)
            g = doc.get("g")
            if not isinstance(g, str):
                raise SpecError(f"{where or 'spec'}: cyclic kind needs a 'g' bit string")
            return cyclic_from_poly(CyclicSpec(n, Gf2Poly.from_string(g)))
    except (CodeError, Gf2Error) as exc:
        raise SpecError(f"{where or 'spec'}: {exc}") from exc
    raise SpecError(f"{where or 'spec'}: unknown code kind {kind!r}")


def _parse_composition(doc: dict) -> AnyCode:
    shape = doc["shape"]
    if shape not in ("row", "column", "grid"):
        raise SpecError(f"unknown composition shape {shape!r}")
    named = doc.get("codes", {})
    if not isinstance(named, dict):
        raise SpecError("'codes' must map names to code specs")
    table = {name: _parse_code(spec, f"codes[{name!r}]") for name, spec in named.items()}
    inline: dict[str, LinearCode] = {}

    def resolve(entry, *index: int) -> LinearCode:
        if isinstance(entry, str):
            if entry not in table:
                raise SpecError(f"{_cell(index)}: unknown code name {entry!r}")
            return table[entry]
        key = _cell_key(entry)
        if key not in inline:
            inline[key] = _parse_code(entry, _cell(index))
        return inline[key]

    cells = doc.get("cells")
    if cells is None:
        raise SpecError("composition spec needs a 'cells' key")
    try:
        if shape == "grid":
            from .grid import GridCode

            if (not isinstance(cells, list) or not cells
                    or any(not isinstance(r, list) for r in cells)):
                raise SpecError("grid 'cells' must be an array of arrays")
            grid = [[resolve(e, i, j) for j, e in enumerate(row)]
                    for i, row in enumerate(cells)]
            return GridCode(grid)
        if not isinstance(cells, list) or not cells:
            raise SpecError(f"{shape} 'cells' must be a non-empty array")
        codes = [resolve(e, i) for i, e in enumerate(cells)]
        from .super_codes import SuperColumnCode, SuperRowCode

        return SuperRowCode(codes) if shape == "row" else SuperColumnCode(codes)
    except CodeError as exc:
        raise SpecError(str(exc)) from exc


def _cell(index: tuple[int, ...]) -> str:
    """The label cells[i] or cells[i][j] of a composition cell, made only for a message."""
    return "cells" + "".join(f"[{k}]" for k in index)


def _matrix(doc: dict, where: str) -> BitMatrix:
    rows = doc.get("rows")
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, str) for r in rows)):
        raise SpecError(f"{where or 'spec'}: 'rows' must be a non-empty array of bit strings")
    width = max(map(len, rows))
    if width > MAX_CODE_LENGTH:
        raise SpecError(f"{where or 'spec'}: {doc['kind']} rows of {width} bits exceed "
                        f"the limit of {MAX_CODE_LENGTH} bits")
    return BitMatrix.from_strings(rows)


def _capped(doc: dict, key: str, where: str) -> int:
    """The integer `doc[key]`, refused before construction if the code outgrows MAX_CODE_LENGTH."""
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecError(f"{where or 'spec'}: '{key}' must be an integer")
    # A Hamming code of order m has length 2^m - 1.
    limit = (MAX_CODE_LENGTH + 1).bit_length() - 1 if key == "m" else MAX_CODE_LENGTH
    if v > limit:
        raise SpecError(f"{where or 'spec'}: {doc['kind']} {key}={v} exceeds the limit "
                        f"{limit} (codes are at most {MAX_CODE_LENGTH} bits long)")
    return v


# -- word syntax --------------------------------------------------------------


def parse_super_word(text: str) -> list[Optional[BitVector]]:
    """Split a '|'-separated word; the token '·' marks an absent cell."""
    from .grid import GridError, parse_segments

    try:
        return parse_segments(text.strip(), what="super word")
    except (GridError, Gf2Error) as exc:
        raise SpecError(str(exc)) from exc


def to_super_codeword(segments: list[Optional[BitVector]]) -> SuperCodeword:
    from .super_codes import SuperCodeword

    if any(s is None for s in segments):
        raise SpecError("absent cells are only valid inside grid words")
    return SuperCodeword(tuple(segments))  # type: ignore[arg-type]
