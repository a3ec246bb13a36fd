"""Machine-speed calibration: a fixed slice of pure-Python work, timed
next to the library's own work, gives how fast the machine ran it.

The slice never calls qu2, and slices run with the cyclic GC off, so no
collection of the library's live objects lands in one.  A change to the
library then moves neither the slice time nor the slowdown, and a time
divided by the slowdown moves as much as the raw one does.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_SLICE_S = 300e-6    # one slice on the reference machine

_WORDS = ((), (1,), (2, 1), (1, 2, 2))


def calibration_slice() -> int:
    """A little work of the kind qu2 does: tuple keys, dict updates and
    Fraction sums."""
    acc = {}
    for i in range(100):
        key = (i % 17, (i * 7) % 13, _WORDS[i % 4])
        acc[key] = acc.get(key, 0) + Fraction(i % 5 - 2, 1 + i % 4)
    return len(acc)


def time_slices(block_s: float, out: list) -> float:
    """Run slices back to back for `block_s` of wall time, appending each
    slice's time to `out`; return the block's wall time."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        while (t0 := perf_counter()) - start < block_s:
            calibration_slice()
            out.append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return perf_counter() - start


def slowdown(slice_times) -> float:
    """How much slower than the reference machine the slices ran: their
    mean time over the nominal one.

    The machine's speed jumps between a few levels every few seconds.
    Blocks last a fixed wall time, so a slow block holds fewer slices, and
    the mean over all slices is the time one unit of work took on average
    over the pass.  A median would instead pick one of the levels."""
    return sum(slice_times) / len(slice_times) / NOMINAL_SLICE_S
