"""Wall-clock instrumentation and process set-up (``repro.perf``).

* :mod:`repro.perf.timer` — ``Timer``/``Section`` wall-clock
  instrumentation with a negligible-overhead no-op mode.  Product hot
  paths (renderer, SPARW pipeline, engine) call
  :func:`~repro.perf.timer.section` unconditionally; unless a timer is
  activated the call is a shared no-op context manager.
* :mod:`repro.perf.allocator` — fixes glibc malloc's mmap / trim
  thresholds when ``repro`` is imported, so per-frame temporaries are
  reused from the heap.
* :mod:`repro.perf.envinfo` — the interpreter / numpy / host / git
  fingerprint the end-to-end benchmark (``benchmarks/e2e/``) records
  with every run.

Performance itself is measured end to end and layer by layer by that
benchmark (see ``docs/benchmarking.md``); this package has no
measurement harness of its own.
"""

from .envinfo import environment_fingerprint
from .timer import NULL_TIMER, Section, SectionStats, Timer, activate, section

__all__ = ["Timer", "Section", "SectionStats", "NULL_TIMER", "activate",
           "section", "environment_fingerprint"]
