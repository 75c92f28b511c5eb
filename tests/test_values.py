"""Value semantics of the immutable value classes, and the package's import footprint."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gridfec
from gridfec.approx import Basis
from gridfec.channel import ChannelConfig, TrialReport
from gridfec.families import CyclicSpec
from gridfec.gf2 import BitMatrix, BitVector, Gf2Poly, SuperMatrix
from gridfec.grid import CellMask, GridCodeword, ReconcileResult, TrueChart
from gridfec.super_codes import SuperCodeword

U, V = BitVector(2, 1), BitVector(3, 5)
WORD = GridCodeword(((U, None),))

# (class, fields of a, fields of b): a and b differ in exactly one field.
CASES = [
    (BitVector, {"length": 3, "bits": 5}, {"length": 3, "bits": 4}),
    (BitMatrix, {"rows": 2, "cols": 3, "row_words": (1, 6)},
     {"rows": 2, "cols": 3, "row_words": (1, 7)}),
    (Gf2Poly, {"coeffs": 0b1011}, {"coeffs": 0b1101}),
    (SuperMatrix, {"body": BitMatrix.identity(3), "row_cuts": (1,), "col_cuts": (2,)},
     {"body": BitMatrix.identity(3), "row_cuts": (1,), "col_cuts": (1,)}),
    (GridCodeword, {"cells": ((U, None),)}, {"cells": ((U, BitVector(2, 2)),)}),
    (ReconcileResult, {"word": WORD, "disagreements": ((0, 1),)},
     {"word": WORD, "disagreements": ()}),
    (TrueChart, {"marks": ((True, False),)}, {"marks": ((False, True),)}),
    (CellMask, {"indices": (1, 3)}, {"indices": (3, 1)}),
    (ChannelConfig, {"flip_probability": 0.1, "seed": 7},
     {"flip_probability": 0.1, "seed": 8}),
    (TrialReport, {"trials": 10, "decode_success": 9, "undetected_error": 1,
                   "residual_bit_errors": 2},
     {"trials": 10, "decode_success": 9, "undetected_error": 1, "residual_bit_errors": 3}),
    (SuperCodeword, {"segments": (U, V)}, {"segments": (V, U)}),
    (CyclicSpec, {"n": 7, "g": Gf2Poly(0b1011)}, {"n": 7, "g": Gf2Poly(0b1101)}),
    (Basis, {"vectors": (BitVector(3, 1), BitVector(3, 2))},
     {"vectors": (BitVector(3, 2), BitVector(3, 1))}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
CUSTOM_REPR = {BitVector, BitMatrix, Gf2Poly}


def test_every_value_class_is_covered():
    exported = {getattr(gridfec, name) for name in gridfec.__all__}
    values = {c for c in exported if isinstance(c, type) and issubclass(c, gridfec.gf2.Value)}
    assert values == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, fa, fb", CASES, ids=IDS)
class TestValueSemantics:
    def test_equality_and_hash_by_field(self, cls, fa, fb):
        a, b = cls(**fa), cls(**fb)
        same = cls(*fa.values())
        assert a == same and not a != same and hash(a) == hash(same)
        assert a != b and not a == b
        assert hash(a) == hash(tuple(fa.values()))

    def test_other_classes_are_not_implemented(self, cls, fa, fb):
        a = cls(**fa)
        other = next(c(**f) for c, f, _ in CASES if c is not cls)
        assert a.__eq__(other) is NotImplemented
        assert a.__eq__(tuple(fa.values())) is NotImplemented
        assert a != other

    def test_fields_read_back(self, cls, fa, fb):
        a = cls(**fa)
        assert all(getattr(a, name) == value for name, value in fa.items())

    def test_assignment_and_deletion_refused(self, cls, fa, fb):
        a = cls(**fa)
        for name in [*fa, "extra"]:
            with pytest.raises(AttributeError):
                setattr(a, name, fb.get(name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == cls(**fa)

    def test_pickle_and_copy_round_trips(self, cls, fa, fb):
        a = cls(**fa)
        for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(back) is cls and back == a and hash(back) == hash(a)


@pytest.mark.parametrize("cls, fa", [pytest.param(c, fa, id=c.__name__)
                                     for c, fa, _ in CASES if c not in CUSTOM_REPR])
def test_repr_names_the_fields(cls, fa):
    fields = ", ".join(f"{name}={value!r}" for name, value in fa.items())
    assert repr(cls(**fa)) == f"{cls.__name__}({fields})"


def test_custom_reprs_stay():
    assert repr(BitVector(3, 5)) == "BitVector('101')"
    assert repr(BitMatrix(2, 3, (1, 6))) == "BitMatrix(['100', '011'])"
    assert repr(Gf2Poly(0b1011)) == "Gf2Poly('1101')"


def test_defaults():
    assert ChannelConfig(0.1).seed == 0
    body = BitMatrix.identity(2)
    assert SuperMatrix(body).row_cuts == () and SuperMatrix(body).col_cuts == ()
    assert SuperMatrix(body, col_cuts=(1,)) == SuperMatrix(body, (), (1,))


def _loaded_after(probe: str) -> set[str]:
    """The modules a fresh interpreter holds after running `probe`.

    -S keeps `site`, which may load modules of its own, out of the probe."""
    env = dict(os.environ, PYTHONPATH=str(Path(gridfec.__file__).parents[1]))
    code = f"import sys\n{probe}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_neither_dataclasses_nor_fractions():
    # Each costs start-up time on every command, and none is needed to import;
    # importlib.resources only for load_stencil.
    loaded = _loaded_after("import gridfec, gridfec.cli")
    assert not {"dataclasses", "fractions", "importlib.resources"} & loaded


FIXTURES = Path(__file__).parent / "fixtures"
COMPOSITION_MODULES = {"gridfec.grid", "gridfec.super_codes", "gridfec.channel"}
SINGLE_CODE_SPECS = [
    '{"kind": "hamming", "m": 3}', '{"kind": "repetition", "n": 5}',
    '{"kind": "parity_check", "n": 4}', '{"kind": "cyclic", "n": 7, "g": "1101"}',
    '{"kind": "parity", "rows": ["110", "011"]}', '{"kind": "generator", "rows": ["111"]}',
]


def test_single_code_commands_load_no_composition_module():
    spec = FIXTURES / "hamming3.json"
    loaded = _loaded_after(
        "import gridfec, gridfec.cli\n"
        f"for text in {SINGLE_CODE_SPECS!r}: gridfec.parse_spec(text)\n"
        f"gridfec.cli.main(['code', 'info', '--spec', {str(spec)!r}])\n"
        f"gridfec.cli.main(['code', 'decode', '--spec', {str(spec)!r}, '--word', '1111110'])")
    assert "gridfec.linear" in loaded
    assert not COMPOSITION_MODULES & loaded


def test_a_grid_spec_loads_grid_but_not_channel():
    spec = FIXTURES / "hamming3_grid.json"
    loaded = _loaded_after(f"import gridfec\ngridfec.parse_spec(open({str(spec)!r}).read())")
    assert "gridfec.grid" in loaded
    assert not {"gridfec.channel", "gridfec.super_codes"} & loaded


def test_sim_run_loads_channel():
    spec = FIXTURES / "hamming3.json"
    loaded = _loaded_after(
        "import gridfec.cli\n"
        f"gridfec.cli.main(['sim', 'run', '--spec', {str(spec)!r}, '--fill', '0000000',"
        " '--p', '0.1', '--trials', '3', '--strategy', 'per_cell_decode'])")
    assert "gridfec.channel" in loaded


def test_every_export_is_its_home_modules_object():
    for name in gridfec.__all__:
        home = importlib.import_module(f"gridfec.{gridfec._HOME[name]}")
        assert getattr(gridfec, name) is getattr(home, name), name
        assert name in dir(gridfec), name
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        gridfec.nonexistent  # noqa: B018


def test_star_import_binds_every_export():
    loaded = _loaded_after("from gridfec import *\nimport gridfec\n"
                           "assert all(name in globals() for name in gridfec.__all__)")
    assert COMPOSITION_MODULES <= loaded
