"""Tests for the bounded shared LRU cache and its configs integration."""

import numpy as np
import pytest

from repro.harness import configs
from repro.harness.configs import FAST, build_renderer
from repro.obs import MetricsRegistry, Observation, activate
from repro.workloads import FIELD_CACHE, SharedLRUCache, pose_hash


class TestSharedLRUCache:
    def test_miss_then_hit(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.insertions == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_entry_bound_evicts_lru(self):
        cache = SharedLRUCache(name="t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_bound_evicts(self):
        cache = SharedLRUCache(name="t", max_entries=10, max_bytes=100)
        cache.put("a", 1, size_bytes=60)
        cache.put("b", 2, size_bytes=60)
        assert "a" not in cache
        assert cache.report()["bytes"] == 60

    def test_oversized_entry_is_refused(self):
        # Pre-fix, an entry larger than max_bytes was retained forever:
        # it could never be evicted (the bound never evicts the newest
        # entry), so total_bytes sat above max_bytes while every other
        # entry got evicted around it.  Now the byte bound is a strict
        # invariant: an entry that cannot fit on its own is refused.
        cache = SharedLRUCache(name="t", max_entries=10, max_bytes=100)
        cache.put("b", 2, size_bytes=60)
        cache.put("c", 3, size_bytes=500)
        assert "c" not in cache
        assert "b" in cache  # the refusal does not evict smaller entries
        assert cache.report()["bytes"] == 60
        assert cache.stats.insertions == 2
        assert cache.stats.evictions == 1  # counted as insert-then-evict
        # Refreshing an existing key with an oversized value drops it.
        cache.put("b", 4, size_bytes=500)
        assert "b" not in cache
        assert cache.report()["bytes"] == 0

    def test_put_refreshes_existing_key(self):
        cache = SharedLRUCache(name="t", max_entries=2)
        cache.put("a", 1, size_bytes=10)
        cache.put("a", 2, size_bytes=20)
        assert cache.report()["entries"] == 1
        assert cache.report()["bytes"] == 20
        assert cache.get("a") == 2
        assert cache.stats.evictions == 0

    def test_get_or_build_builds_once(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert cache.get_or_build("k", build) == "value"
        assert cache.get_or_build("k", build) == "value"
        assert len(calls) == 1

    def test_get_or_build_caches_none_values(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        calls = []
        assert cache.get_or_build("k", lambda: calls.append(1)) is None
        assert cache.get_or_build("k", lambda: calls.append(1)) is None
        assert len(calls) == 1

    def test_snapshot_and_since(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        cache.put("a", 1)
        before = cache.stats.snapshot()
        cache.get("a")
        cache.get("missing")
        delta = cache.stats.since(before)
        assert (delta.hits, delta.misses, delta.insertions) == (1, 1, 0)

    def test_report_shape(self):
        cache = SharedLRUCache(name="t", max_entries=4)
        cache.put("a", 1, size_bytes=5)
        report = cache.report()
        assert report["entries"] == 1
        assert report["bytes"] == 5
        assert set(report) == {"hits", "misses", "insertions", "evictions",
                               "hit_rate", "entries", "bytes"}

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SharedLRUCache(name="t", max_entries=0)
        with pytest.raises(ValueError):
            SharedLRUCache(name="t", max_entries=1, max_bytes=0)


class TestPoseHash:
    def test_equal_poses_equal_hashes(self):
        pose = np.eye(4)
        assert pose_hash(pose) == pose_hash(pose.copy())

    def test_sensitive_to_any_element(self):
        pose = np.eye(4)
        perturbed = pose.copy()
        perturbed[0, 3] = 1e-12
        assert pose_hash(pose) != pose_hash(perturbed)


class TestConfigsIntegration:
    """build_renderer is served from the bounded FIELD_CACHE."""

    def test_same_args_share_renderer_instance(self):
        before = FIELD_CACHE.stats.snapshot()
        a = build_renderer("directvoxgo", "lego", FAST)
        b = build_renderer("directvoxgo", "lego", FAST)
        assert a is b
        assert FIELD_CACHE.stats.since(before).hits >= 1

    def test_cold_bake_is_observed_once_per_field(self, monkeypatch):
        """The ``workloads.bake`` section's ``workloads.bake_s`` histogram:
        one sample per baked field on a cold build, none on a cache hit."""
        monkeypatch.setattr(configs, "FIELD_CACHE",
                            SharedLRUCache(name="cold", max_entries=16))
        obs = Observation(metrics=MetricsRegistry())
        with activate(obs):
            build_renderer("directvoxgo", "mic", FAST)
            build_renderer("instant_ngp", "mic", FAST)  # same reference grid
            assert obs.metrics.histogram("workloads.bake_s").count == 2
            build_renderer("directvoxgo", "mic", FAST)
            build_renderer("instant_ngp", "mic", FAST)
        bake_s = obs.metrics.histogram("workloads.bake_s")
        assert bake_s.count == 2 and bake_s.min_value > 0.0

    def test_field_cache_is_bounded(self):
        assert FIELD_CACHE.max_entries < 1000
