"""Process set-up and the run fingerprint (``repro.perf``).

``allocator`` fixes glibc malloc's mmap / trim thresholds when ``repro``
is imported; ``envinfo`` is the fingerprint the end-to-end benchmark
(``benchmarks/e2e/``, see ``docs/benchmarking.md``) records with every
run.  Stage timing inside a run is :func:`repro.obs.section`.
"""

from .envinfo import environment_fingerprint

__all__ = ["environment_fingerprint"]
