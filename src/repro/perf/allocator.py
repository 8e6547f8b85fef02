"""Fixed glibc ``malloc`` thresholds, set once when :mod:`repro` is imported.

Every render call allocates and frees a handful of multi-megabyte NumPy
temporaries.  Whether those come out of heap memory the process already
holds, or are unmapped on free and page-faulted back in on the next call,
is decided by two ``malloc`` thresholds that glibc by default *adapts to the
largest block freed so far*: the mmap threshold follows it (up to 32 MiB)
and the trim threshold is twice that.  Left adaptive, the steady-state cost
of a frame therefore depends on which temporaries some earlier, unrelated
step happened to free — a 29 MB distance stack in one bake implementation
gave a 58 MB trim threshold and no faults per ``solo_sparw`` pass; a leaner
bake gave 42 MB and about 7 000 faults (28 MB re-zeroed by the kernel) per
pass, 5-8 % fewer frames per second and twice the run-to-run spread on a
host whose fault cost varies.

Setting either threshold switches the adaptation off, so both are set:
blocks up to 32 MiB (the largest value glibc accepts) come from the heap,
and the heap's free top is returned to the system only past 128 MiB —
above the 40-80 MB the render working set of any workload here reaches,
so nothing is trimmed and re-faulted between frames.  Baked tables are
larger than 32 MiB and stay individually mapped.  Not a tunable: there is
no flag, environment variable or argument, and on a C library without
``mallopt`` (musl, macOS, Windows) this does nothing.
"""

from __future__ import annotations

import ctypes
import sys

__all__ = ["MMAP_THRESHOLD_BYTES", "TRIM_THRESHOLD_BYTES",
           "fix_malloc_thresholds"]

# <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 128 << 20


def fix_malloc_thresholds() -> bool:
    """Stop glibc adapting its mmap/trim thresholds; True if both were set."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))
