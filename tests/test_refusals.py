"""Constructor and guard refusals across the package, one row each: the call,
the exception type and the whole message."""

import re

import pytest

from gridfec.approx import Basis
from gridfec.families import CyclicSpec, parity_check, parity_matrix_from_h
from gridfec.gf2 import BitMatrix, BitVector, Gf2Error, Gf2Poly, SuperMatrix
from gridfec.grid import CellMask, GridCodeword, GridError, block_layout, grid_dot
from gridfec.linear import CapacityError, CodeError, LinearCode

BV = BitVector.from_string
BM = BitMatrix.from_strings

H_121 = BM(["0101000", "1010100", "0010010", "0010001"])  # a (7, 3) code

REFUSALS = [
    pytest.param(lambda: BitVector(-1, 0), Gf2Error,
                 "vector length must be non-negative", id="BitVector-negative-length"),
    pytest.param(lambda: BitVector(2, 4), Gf2Error,
                 "bit pattern does not fit the stated length", id="BitVector-too-wide"),
    pytest.param(lambda: BitMatrix(-1, 0, ()), Gf2Error,
                 "matrix dimensions must be non-negative", id="BitMatrix-negative-rows"),
    pytest.param(lambda: BitMatrix(0, -1, ()), Gf2Error,
                 "matrix dimensions must be non-negative", id="BitMatrix-negative-cols"),
    pytest.param(lambda: BitMatrix(2, 3, (1,)), Gf2Error,
                 "row count does not match stored rows", id="BitMatrix-row-count"),
    pytest.param(lambda: BitMatrix(1, 2, (4,)), Gf2Error,
                 "row data wider than stated column count", id="BitMatrix-row-too-wide"),
    pytest.param(lambda: Gf2Poly(-1), Gf2Error,
                 "polynomial bits must be non-negative", id="Gf2Poly-negative"),
    pytest.param(lambda: Gf2Poly.x_pow_plus_one(0), Gf2Error,
                 "exponent must be at least 1", id="x_pow_plus_one-zero"),
    pytest.param(lambda: SuperMatrix(BitMatrix.identity(3), row_cuts=(2, 1)), Gf2Error,
                 "row cuts must be strictly increasing", id="SuperMatrix-falling-cuts"),
    pytest.param(lambda: SuperMatrix(BitMatrix.identity(3), col_cuts=(1, 1)), Gf2Error,
                 "column cuts must be strictly increasing", id="SuperMatrix-repeated-cut"),
    pytest.param(lambda: CyclicSpec(7, Gf2Poly(0)), CodeError,
                 "generator polynomial must be nonzero", id="CyclicSpec-zero-g"),
    pytest.param(lambda: parity_matrix_from_h(7, Gf2Poly(0)), CodeError,
                 "parity polynomial must be nonzero", id="parity_matrix_from_h-zero-h"),
    pytest.param(lambda: LinearCode(BitMatrix(2, 1, (1, 0))), CodeError,
                 "parity-check matrix needs at least as many columns as rows",
                 id="LinearCode-fewer-columns-than-rows"),
    pytest.param(lambda: LinearCode(H_121, BM(["100010", "010100", "001011"])), CodeError,
                 "generator width 6 does not match length 7", id="LinearCode-G-width"),
    pytest.param(lambda: LinearCode(H_121, BM(["1000100", "0101000"])), CodeError,
                 "generator has 2 rows but the code has dimension 3",
                 id="LinearCode-G-row-count"),
    pytest.param(lambda: LinearCode(H_121, BM(["1000000", "0100000", "0010000"])), CodeError,
                 "generator and parity-check matrices are not orthogonal",
                 id="LinearCode-G-not-orthogonal"),
    pytest.param(lambda: LinearCode.from_generator(BitMatrix(0, 0, ())), CodeError,
                 "generator matrix must be non-empty", id="from_generator-empty"),
    pytest.param(lambda: parity_check(26).codewords, CapacityError,
                 "k=25 exceeds the enumeration guard of 24", id="codewords-past-guard"),
    pytest.param(lambda: grid_dot(GridCodeword(((BV("10"), None),)),
                                  GridCodeword(((BV("10"), BV("1")),))), GridError,
                 "cell (0, 1) is absent; dot product undefined", id="grid_dot-absent-cell"),
    pytest.param(lambda: grid_dot(GridCodeword(((BV("10"),),)), GridCodeword(((BV("101"),),))),
                 GridError, "cell (0, 0) lengths differ: 2 vs 3", id="grid_dot-lengths-differ"),
    pytest.param(lambda: block_layout(1, 1, [((0, 2), (0, 1), parity_check(2))]), GridError,
                 "block rows 0:2 cols 0:1 falls outside the grid", id="block_layout-outside"),
    pytest.param(lambda: CellMask.from_pairs([], 0), GridError,
                 "grid needs at least one column", id="CellMask-from_pairs-no-columns"),
    pytest.param(lambda: Basis(()), Gf2Error, "basis must be non-empty", id="Basis-empty"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
