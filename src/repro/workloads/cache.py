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
* :func:`make_render_memo` — a fresh bounded render memo: NeRF outputs
  keyed by ``(render_key, rays_hash)``, SPARW target frames and
  trajectories.  A ``simulate_cluster`` run and a ``serve-live`` process
  each hold one (see :meth:`WorkloadSpec.build_session
  <repro.workloads.WorkloadSpec.build_session>`).
* :func:`rays_hash` — the exact-bytes identity of a ray bundle, the
  second half of a render memo's NeRF keys.
* :class:`LRUCore` — the bounded-LRU bookkeeping under every cache here,
  without lock, counters or metrics; the sharded field store's per-worker
  tiers (:mod:`repro.distribution.tier`) use it bare.

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

from ..obs.runtime import metric_inc, metric_set

__all__ = [
    "CacheStats", "LRUCore", "SharedLRUCache", "pose_hash", "rays_hash",
    "FIELD_CACHE", "REFERENCE_CACHE", "RENDER_MEMO_BYTES",
    "RENDER_MEMO_ENTRIES", "cache_report", "make_render_memo",
    "record_render_memo", "reset_caches",
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


class LRUCore:
    """LRU entries under an optional entry bound and byte bound.

    Whichever bound is hit first evicts least-recently-used entries.  Not
    thread-safe and keeps no counters: :meth:`put` returns how many
    entries left, and callers account for them.
    """

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self._total_bytes = 0

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Sum of the sizes of all live entries."""
        return self._total_bytes

    def touch(self, key) -> _Entry | None:
        """The entry at ``key`` (None if absent), refreshed to most-recent."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value, size_bytes: int = 0) -> int:
        """Insert (or refresh) an entry; returns the number evicted.

        An entry larger than ``max_bytes`` on its own is refused (and
        counts as one eviction): keeping it would hold ``total_bytes``
        over the bound for as long as it stays hot, so the byte bound is
        a strict invariant rather than a target.
        """
        size_bytes = int(size_bytes)
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_bytes -= old.size_bytes
        if self.max_bytes is not None and size_bytes > self.max_bytes:
            return 1
        self._entries[key] = _Entry(value=value, size_bytes=size_bytes)
        self._total_bytes += size_bytes
        # Evicting down to a single entry is enough for the byte bound:
        # the newest entry always fits on its own.
        evicted = 0
        while ((self.max_entries is not None
                and len(self._entries) > self.max_entries)
               or (self.max_bytes is not None
                   and self._total_bytes > self.max_bytes
                   and len(self._entries) > 1)):
            _, entry = self._entries.popitem(last=False)
            self._total_bytes -= entry.size_bytes
            evicted += 1
        return evicted


@dataclass
class SharedLRUCache(LRUCore):
    """Bounded LRU keyed by content-addressed tuples/strings.

    An :class:`LRUCore` bounded by entry count and (optionally) by total
    payload bytes, with hit/miss/insertion/eviction counters mirrored
    into the ``cache.<name>.*`` metrics.  A refused oversized entry
    counts as an insertion followed by an immediate eviction.
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
        LRUCore.__init__(self, self.max_entries, self.max_bytes)
        self._lock = threading.RLock()
        # key -> Event set when that key's in-flight build completes
        # (successfully or not); waiters re-check the cache afterwards.
        self._inflight: dict = {}

    # -- core ------------------------------------------------------------------

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key):
        """Lookup (``None`` on a miss); counts a hit or miss and refreshes
        recency on hit."""
        with self._lock:
            entry = self.touch(key)
            if entry is None:
                self.stats.misses += 1
                metric_inc(f"cache.{self.name}.misses")
                return None
            self.stats.hits += 1
            metric_inc(f"cache.{self.name}.hits")
            return entry.value

    def put(self, key, value, size_bytes: int = 0) -> int:
        """Insert (or refresh) an entry, evicting LRU entries as needed."""
        with self._lock:
            self.stats.insertions += 1
            metric_inc(f"cache.{self.name}.insertions")
            evicted = LRUCore.put(self, key, value, size_bytes)
            if evicted:
                self.stats.evictions += evicted
                metric_inc(f"cache.{self.name}.evictions", evicted)
            if self.max_bytes is not None and int(size_bytes) > self.max_bytes:
                metric_inc(f"cache.{self.name}.oversized")
            return evicted

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
                entry = self.touch(key)
                if entry is not None:
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

# Bounds of a render memo.  A FAST pass holds a few hundred entries of
# tens of kilobytes (a target frame ~85 KB); at DEFAULT scale a reference
# output is ~0.4 MB, so the byte bound is the one that binds.
RENDER_MEMO_ENTRIES = 4096
RENDER_MEMO_BYTES = 64 << 20


def make_render_memo(cache_class: type = SharedLRUCache,
                     max_entries: int = RENDER_MEMO_ENTRIES) -> SharedLRUCache:
    """A fresh render memo: one per ``simulate_cluster`` run or live server.

    It answers NeRF outputs (keyed by ``(render_key, rays_hash)``, see
    :class:`~repro.engine.MultiSessionEngine`), SPARW target frames and
    trajectories (see :meth:`WorkloadSpec.build_session
    <repro.workloads.WorkloadSpec.build_session>`), each a pure function
    of its key, so a hit changes host time only.  ``cache_class`` and
    ``max_entries`` let the cluster simulator resolve both in its own
    module, where its memo tests swap them; the byte bound is read at
    call time.
    """
    return cache_class(name="render_memo", max_entries=max_entries,
                       max_bytes=RENDER_MEMO_BYTES)


def record_render_memo(memo: SharedLRUCache, owner: str) -> None:
    """Add a render memo's totals to the active metrics, once, at its end.

    ``<owner>.render_memo.hits`` / ``.misses`` / ``.evictions`` are
    incremented by its counters and ``<owner>.render_memo.bytes`` is set
    to what it holds.
    """
    report = memo.report()
    for key in ("hits", "misses", "evictions"):
        metric_inc(f"{owner}.render_memo.{key}", report[key])
    metric_set(f"{owner}.render_memo.bytes", report["bytes"])


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
