"""Binary linear block codes, their row/column/grid compositions, and a
deterministic noisy-channel simulator with a CLI front end.

Each exported name is imported from its home module on first use (PEP 562),
so a command loads only the modules it runs: a single-code command never
compiles `grid`, `super_codes` or `channel`.
"""

# Every exported name, listed once under the module that defines it.
_EXPORTS = {
    "approx": ("ApproxDecodeError", "Basis", "approx_decode", "pseudo_best_approx",
               "pseudo_inner"),
    "channel": ("ChannelConfig", "ChannelError", "TrialReport", "bsc_corrupt",
                "inject_errors", "run_trial"),
    "families": ("CyclicSpec", "cyclic_from_poly", "hamming", "parity_check",
                 "parity_matrix_from_h", "parity_poly", "repetition"),
    "gf2": ("BitMatrix", "BitVector", "Gf2Error", "Gf2Poly", "SuperMatrix", "distance",
            "mat_mul", "mat_vec", "poly_divide", "rank", "super_equal", "super_transpose",
            "transpose"),
    "grid": ("CellMask", "CompositionError", "GridCode", "GridCodeword", "GridError",
             "ReconcileResult", "TrueChart", "apply_chart", "apply_mask", "block_layout",
             "format_super_word", "grid_dot", "load_stencil", "mask_from_ap"),
    "linear": ("CapacityError", "CodeError", "LinearCode", "Syndrome"),
    "specio": ("SpecError", "parse_spec", "parse_super_word"),
    "super_codes": ("GeneratorUndefinedError", "SuperCodeword", "SuperColumnCode",
                    "SuperRowCode", "col_family", "row_family", "super_distance",
                    "super_weight"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the submodule itself; importlib.import_module
    # would load importlib and warnings into every command.
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
