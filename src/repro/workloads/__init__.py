"""Unified workload layer: declarative specs, registry, and shared caches.

Every harness entry point (figure experiments, the serve CLI, the
multi-session engine) consumes workloads through this package:

* :class:`WorkloadSpec` — declarative scene x trajectory x algorithm x
  variant x quality-tier description of one user session.
* :mod:`~repro.workloads.registry` — named specs and serve-mix parsing
  (``vr-lego:3,dolly-chair:2``).
* :mod:`~repro.workloads.cache` — bounded content-addressed LRU caches
  shared across sessions: baked fields/renderers (process-wide) and a
  run's SPARW reference renders, with hit/miss/eviction stats surfaced
  in serving reports, and the render memo a cluster run or live server
  answers repeated NeRF requests, target frames and trajectories from.
"""

from .cache import (
    FIELD_CACHE,
    CacheStats,
    SharedLRUCache,
    cache_report,
    make_reference_cache,
    make_render_memo,
    pose_hash,
    rays_hash,
    reset_caches,
)
from .registry import (
    WORKLOADS,
    apply_slo,
    build_mixed_sessions,
    get_workload,
    list_workloads,
    parse_mix,
    register_workload,
)
from .spec import QUALITY_LEVELS, TIERS, WorkloadSpec

__all__ = [
    "FIELD_CACHE",
    "CacheStats",
    "SharedLRUCache",
    "cache_report",
    "make_reference_cache",
    "make_render_memo",
    "pose_hash",
    "rays_hash",
    "reset_caches",
    "WORKLOADS",
    "apply_slo",
    "build_mixed_sessions",
    "get_workload",
    "list_workloads",
    "parse_mix",
    "register_workload",
    "QUALITY_LEVELS",
    "TIERS",
    "WorkloadSpec",
]
