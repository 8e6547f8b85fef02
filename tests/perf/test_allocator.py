"""``import repro`` fixes glibc malloc's thresholds (``repro.perf.allocator``).

Clock-free: the checks count mmapped blocks (``mallinfo2().hblks``) and
minor page faults (``ru_minflt``), in a child process so the state of the
test runner's own heap plays no part.
"""

import ctypes
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _has_mallinfo2() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (OSError, TypeError):
        return False


needs_glibc = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _has_mallinfo2()),
    reason="glibc >= 2.33 only (mallopt / mallinfo2)")

PROBE = textwrap.dedent("""
    import ctypes, resource, sys
    import numpy as np
    if {import_repro}:
        import repro

    class Info(ctypes.Structure):
        _fields_ = [(n, ctypes.c_size_t) for n in (
            "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks "
            "fordblks keepcost").split()]
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = Info
    mapped = lambda: libc.mallinfo2().hblks
    faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    before = mapped()
    block = np.empty(8 << 20, dtype=np.uint8)
    print("mapped_8mb", mapped() - before)
    del block
    before = mapped()
    block = np.empty(40 << 20, dtype=np.uint8)
    print("mapped_40mb", mapped() - before)
    del block

    # Left adaptive, the 8 MB block freed above has set the thresholds to
    # 8 MB (mmap) and 16 MB (trim), as a bake's temporaries do.
    # A frame's worth of temporaries, over and over: 8 x 3 MB live at once
    # (each below the 4 MB from which NumPy asks for huge pages).
    def frame():
        live = [np.ones(3 << 20, dtype=np.uint8) for _ in range(8)]
        return sum(int(a[-1]) for a in live)
    frame(); frame()
    start = faults()
    for _ in range(20):
        frame()
    print("faults_20_frames", faults() - start)
""")


def _probe(import_repro: bool) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(import_repro=import_repro)],
        env={"PYTHONPATH": str(SRC), "PATH": "",
             "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
        capture_output=True, text=True).stdout
    return dict(line.split() for line in out.strip().splitlines())


@needs_glibc
def test_import_fixes_the_thresholds():
    from repro.perf.allocator import fix_malloc_thresholds
    assert fix_malloc_thresholds() is True  # repeatable; already in force
    seen = _probe(import_repro=True)
    # Below 32 MiB comes from the heap, above it is still mapped on its own.
    assert int(seen["mapped_8mb"]) == 0
    assert int(seen["mapped_40mb"]) == 1
    # 20 frames x 24 MB are 122 880 pages if the heap is trimmed every frame.
    assert int(seen["faults_20_frames"]) < 500


@needs_glibc
def test_adaptive_default_is_what_the_fix_replaces():
    """Without the fix the same loop re-faults every temporary.

    Guards the test above against passing for some other reason (a libc
    whose default already retains the blocks).
    """
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    if thp.exists() and "[always]" in thp.read_text():
        pytest.skip("huge pages everywhere: a re-faulted heap costs few faults")
    seen = _probe(import_repro=False)
    assert int(seen["mapped_8mb"]) == 1
    assert int(seen["faults_20_frames"]) > 5000


def test_no_op_without_mallopt(monkeypatch):
    from repro.perf import allocator
    monkeypatch.setattr(allocator.sys, "platform", "win32")
    assert allocator.fix_malloc_thresholds() is False
