"""One benchmark child process: time set-up, then run one closed loop.

run.py starts this file in a fresh interpreter, one child at a time:

    python3 bench/child.py MODE WORKLOAD SEED SECONDS WORKDIR SRC SPANS

MODE is `probe` (set-up only), `run` (timed closed loop for SECONDS, never
traced) or `trace` (a fixed number of operations untraced, then the same
operations traced, with the spans written to SPANS).  Set-up is the import
of gridfec and gridfec.cli plus one parse of each spec in WORKDIR.  The child
prints one JSON object as its last line.
"""

# Only modules the interpreter has already loaded at start-up, and the
# calibration kernel, are imported before set-up is timed, so that gridfec's
# own imports are all counted.
import os
import sys
import time

import kernel


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, workdir, src, spans = argv
    sys.path.insert(0, src)
    before = kernel.calibration_kernel()
    t0 = time.perf_counter()
    import gridfec
    import gridfec.cli  # noqa: F401
    import gridfec.specio
    parsed = {}
    for fname in sorted(os.listdir(workdir)):
        if fname.endswith(".json"):
            with open(os.path.join(workdir, fname)) as f:
                parsed[fname] = gridfec.specio.parse_spec(f.read())
    setup_s = time.perf_counter() - t0
    after = kernel.calibration_kernel()

    import json
    from pathlib import Path

    import loop

    if not Path(gridfec.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported gridfec from {gridfec.__file__}, not from {src}")
    print(json.dumps(loop.run(mode, name, int(seed), float(seconds), Path(workdir),
                              Path(spans), parsed, setup_s, [before, after])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
