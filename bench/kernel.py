"""A calibration kernel: a fixed slice of pure-Python work, about 1 ms.

Imports nothing but gc and time, so child.py can run it before timing the
import of gridfec.
"""

import gc
import time

# Calibration kernel time in the fastest state seen on a shared 2-core Xeon
# (Sapphire Rapids) KVM guest with Python 3.11.  Timings are reported at the
# machine speed where the kernel takes this long; at that speed they equal
# wall time.
KERNEL_REF_S = 1.10e-3


class _Cell:
    __slots__ = ("index", "bits")

    def __init__(self, index: int, bits: int) -> None:
        self.index = index
        self.bits = bits


def calibration_kernel() -> float:
    """Seconds taken by a fixed slice of pure-Python work, about 1 ms idle.

    Other tenants of a shared host slow this process by up to 2x for
    minutes at a time, and CPU time slows with wall time, so neither filters
    them out.  The kernel does what gridfec's hot paths do (allocate small
    slotted objects, read attributes, store into a dict, count bits) and
    slows with them; timings divided by the kernel time around them drop
    that shared slowdown.  Garbage collection is off inside the kernel so
    that its time does not depend on what the benchmarked code left alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(3000):
            cell = _Cell(i, (i * 0x9E3779B1) & 0xFFFF)
            table[cell.bits] = cell
            acc ^= (cell.index ^ cell.bits).bit_count()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
