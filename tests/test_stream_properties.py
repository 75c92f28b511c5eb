"""Property tests: grid words survive the row stream, the column stream and
the '|' word syntax unchanged.

Skipped when hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gridfec.families import parity_check
from gridfec.gf2 import BitVector
from gridfec.grid import GridCode, GridCodeword, format_super_word
from gridfec.specio import parse_super_word


@st.composite
def grid_words(draw):
    """A grid of up to 4x4 cells, one length per column, some cells absent.

    Every cell is a parity-check code, so each row has one check symbol
    whatever the column lengths; the cell bits are arbitrary, since the
    stream parsers check only the order and the cell lengths.
    """
    m = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    grid = GridCode([[parity_check(n) for n in lengths] for _ in range(m)])
    cell = {n: st.none() | st.integers(0, (1 << n) - 1).map(lambda b, n=n: BitVector(n, b))
            for n in set(lengths)}
    rows = [[draw(cell[n]) for n in lengths] for _ in range(m)]
    return grid, GridCodeword.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(grid_words())
def test_row_stream_round_trip(case):
    grid, word = case
    assert grid.from_row_stream(word.to_row_stream()) == word


@settings(max_examples=200, deadline=None)
@given(grid_words())
def test_col_stream_round_trip(case):
    grid, word = case
    assert grid.from_col_stream(word.to_col_stream()) == word


@settings(max_examples=200, deadline=None)
@given(grid_words())
def test_super_word_round_trip(case):
    _, word = case
    for row in word.cells:
        assert parse_super_word(format_super_word(row)) == list(row)
