"""Shared cross-session artifact cache: bounded LRU with hit/miss stats.

The paper's SPARW pipeline reuses radiance *across frames*; at serving
scale the same idea applies *across sessions* — users viewing the same
workload share baked field tensors and reference renders instead of
recomputing them.  This module provides the content-addressed store behind
that sharing:

* :data:`FIELD_CACHE` — baked fields, occupancy grids, and renderers,
  keyed by (algorithm, scene, config scale).  Replaces the previously
  *unbounded* ``functools.lru_cache`` on ``build_renderer``, which grew
  without limit under many-scene serving.
* :data:`REFERENCE_CACHE` — full-frame SPARW reference
  :class:`~repro.nerf.renderer.RenderOutput` results, keyed by
  (workload-spec hash, pose hash, ray count).  The multi-session engine
  consults it so identical sessions render each reference once.
* :func:`rays_hash` — the exact-bytes identity of a ray bundle, the
  second half of the cluster simulator's per-run render-memo keys
  (``(cache_key, rays_hash)``, see :mod:`repro.cluster.simulator`).

Entries are treated as immutable by every consumer; because rendering is
deterministic, serving a cached entry is bit-identical to recomputing it
(locked by ``tests/workloads/test_serve_cache_parity.py``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs.runtime import metric_inc

__all__ = [
    "CacheStats", "SharedLRUCache", "pose_hash", "rays_hash",
    "FIELD_CACHE", "REFERENCE_CACHE", "cache_report", "reset_caches",
]


@dataclass
class CacheStats:
    """Cumulative counters for one shared cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the counters (for before/after deltas)."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          insertions=self.insertions,
                          evictions=self.evictions)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            insertions=self.insertions - earlier.insertions,
            evictions=self.evictions - earlier.evictions,
        )


@dataclass
class _Entry:
    value: object
    size_bytes: int = 0


@dataclass
class SharedLRUCache:
    """Bounded LRU keyed by content-addressed tuples/strings.

    Bounded both by entry count and (optionally) by total payload bytes;
    whichever limit is hit first evicts least-recently-used entries.  An
    entry larger than ``max_bytes`` on its own is refused outright
    (counted as an insertion followed by an immediate eviction), so the
    byte bound is a strict invariant rather than a target.
    Values are returned by reference and must be treated as immutable.

    Thread safety: every public operation holds one reentrant lock, and
    :meth:`get_or_build` is additionally *single-flight* — concurrent
    callers missing on the same key run ``builder()`` exactly once and
    share its result.  Both matter because :data:`FIELD_CACHE` and
    :data:`REFERENCE_CACHE` are hit from the live frame server's worker
    threads (see :mod:`repro.server`), not just the single-threaded
    harness.
    """

    name: str = "cache"
    max_entries: int = 64
    max_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self._entries: OrderedDict = OrderedDict()
        self._total_bytes = 0
        # RLock: put() calls _evict() with the lock already held.
        self._lock = threading.RLock()
        # key -> Event set when that key's in-flight build completes
        # (successfully or not); waiters re-check the cache afterwards.
        self._inflight: dict = {}

    # -- core ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Sum of the sizes of all live entries."""
        with self._lock:
            return self._total_bytes

    def get(self, key, default=None):
        """Lookup; counts a hit or miss and refreshes recency on hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                metric_inc(f"cache.{self.name}.misses")
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            metric_inc(f"cache.{self.name}.hits")
            return entry.value

    def put(self, key, value, size_bytes: int = 0) -> None:
        """Insert (or refresh) an entry, evicting LRU entries as needed.

        An entry that could never satisfy the byte bound on its own
        (``size_bytes > max_bytes``) is not retained: keeping it would
        leave ``total_bytes`` over the bound for as long as the entry
        stays hot, evicting everything else instead.
        """
        size_bytes = int(size_bytes)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_bytes -= old.size_bytes
            self.stats.insertions += 1
            metric_inc(f"cache.{self.name}.insertions")
            if self.max_bytes is not None and size_bytes > self.max_bytes:
                self.stats.evictions += 1
                metric_inc(f"cache.{self.name}.evictions")
                metric_inc(f"cache.{self.name}.oversized")
                return
            self._entries[key] = _Entry(value=value, size_bytes=size_bytes)
            self._total_bytes += size_bytes
            self._evict()

    def get_or_build(self, key, builder, size_of=None):
        """Cached ``builder()`` call: the memoisation idiom of ``configs``.

        ``size_of(value)`` (optional) prices the entry for the byte
        bound.  Single-flight under concurrency: if another thread is
        already building ``key``, this call waits for that build and
        returns the cached result instead of building again.  If the
        in-flight build raises, one waiter takes over the build.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    metric_inc(f"cache.{self.name}.hits")
                    return entry.value
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = done = threading.Event()
                    self.stats.misses += 1
                    metric_inc(f"cache.{self.name}.misses")
            if waiter is not None:
                waiter.wait()
                continue  # builder finished (or failed); re-check
            try:
                value = builder()
                size = int(size_of(value)) if size_of is not None else 0
                self.put(key, value, size_bytes=size)
                return value
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                done.set()

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0

    def _evict(self) -> None:
        # Callers hold self._lock.  Evicting down to a single entry is
        # enough for the byte bound: put() refuses entries larger than
        # max_bytes, so the newest entry always fits on its own.
        while (len(self._entries) > self.max_entries
               or (self.max_bytes is not None
                   and self._total_bytes > self.max_bytes
                   and len(self._entries) > 1)):
            _, entry = self._entries.popitem(last=False)
            self._total_bytes -= entry.size_bytes
            self.stats.evictions += 1
            metric_inc(f"cache.{self.name}.evictions")

    # -- reporting -------------------------------------------------------------

    def report(self, since: CacheStats | None = None) -> dict:
        """JSON-able stats row (optionally as a delta from a snapshot).

        Counters honour ``since``; ``entries``/``bytes`` are always the
        cache's *current* totals (they may include entries inserted
        before the snapshot — callers labelling the report per-run should
        say so).
        """
        with self._lock:
            stats = (self.stats.since(since) if since is not None
                     else self.stats)
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "insertions": stats.insertions,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
                "entries": len(self._entries),
                "bytes": self._total_bytes,
            }


def pose_hash(pose: np.ndarray) -> str:
    """Content hash of a camera pose (exact bytes, no tolerance)."""
    data = np.ascontiguousarray(np.asarray(pose, dtype=np.float64))
    return hashlib.sha1(data.tobytes()).hexdigest()


def rays_hash(origins: np.ndarray, directions: np.ndarray) -> str:
    """Content hash of a ray bundle (shapes and exact bytes, no tolerance)."""
    digest = hashlib.sha1()
    for rays in (origins, directions):
        data = np.ascontiguousarray(np.asarray(rays, dtype=np.float64))
        digest.update(repr(data.shape).encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


# Process-wide shared caches.  Field entries are few but heavy (baked
# tensors); reference entries are many but uniform (one RenderOutput per
# (spec, pose)), so that cache is additionally byte-bounded.
FIELD_CACHE = SharedLRUCache(name="fields", max_entries=48)
REFERENCE_CACHE = SharedLRUCache(name="references", max_entries=256,
                                 max_bytes=64 << 20)


def cache_report(field_since: CacheStats | None = None,
                 reference_since: CacheStats | None = None) -> dict:
    """Combined stats of the shared caches for serving reports."""
    return {
        "fields": FIELD_CACHE.report(since=field_since),
        "references": REFERENCE_CACHE.report(since=reference_since),
    }


def reset_caches() -> None:
    """Drop every shared cache entry and reset counters (test isolation)."""
    for cache in (FIELD_CACHE, REFERENCE_CACHE):
        cache.clear()
        cache.stats = CacheStats()
