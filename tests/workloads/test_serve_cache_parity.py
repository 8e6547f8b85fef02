"""Regression: cached serving == uncached serving, bit for bit.

The shared cross-session reference cache must change *work*, never
*output*: for a mixed-workload serve (>= 3 distinct specs, one duplicated)
every session's frames, pixel classifications, and recorded work stats
must be identical with the cache enabled and disabled — while the cached
run demonstrably serves reference renders from the cache.
"""

import numpy as np
import pytest

from instruments import session_of
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig
from repro.harness.runner import execute_cell
from repro.workloads import SharedLRUCache, build_mixed_sessions

# Three distinct workloads; vr-lego duplicated so two users consume the
# identical content (the case the shared cache exists for).
MIX = "vr-lego:2,vr-headshake,dolly-chair"
FRAMES = 4


def _run(cache):
    sessions = build_mixed_sessions(MIX, FAST, frames=FRAMES)
    result = MultiSessionEngine(sessions, reference_cache=cache).run()
    return result


@pytest.fixture(scope="module")
def uncached():
    return _run(cache=None)


@pytest.fixture(scope="module")
def cached_run():
    cache = SharedLRUCache(name="test-references", max_entries=64)
    return _run(cache=cache), cache


class TestCachedServingParity:
    def test_cache_actually_used(self, cached_run):
        result, cache = cached_run
        assert result.batch.cache_hits > 0
        assert cache.stats.hits == result.batch.cache_hits
        assert cache.stats.insertions > 0
        # The duplicated vr-lego sessions issue one reference per window;
        # every one after the primary's must be served from the cache.
        lego = session_of(result, "vr-lego-01").result
        assert result.batch.cache_hits >= lego.num_references

    def test_fewer_rays_rendered_with_cache(self, cached_run, uncached):
        result, _ = cached_run
        assert result.batch.total_rays < uncached.batch.total_rays

    def test_frames_bit_identical(self, cached_run, uncached):
        result, _ = cached_run
        for solo in uncached.sessions:
            twin = session_of(result, solo.session_id).result
            ref = solo.result
            assert twin.num_frames == ref.num_frames == FRAMES
            for bf, sf in zip(twin.frames, ref.frames):
                assert np.array_equal(bf.image, sf.image)
                assert np.array_equal(bf.depth, sf.depth)
                assert np.array_equal(bf.hit, sf.hit)

    def test_records_identical(self, cached_run, uncached):
        result, _ = cached_run
        for solo in uncached.sessions:
            twin = session_of(result, solo.session_id).result
            for br, sr in zip(twin.records, solo.result.records):
                assert br.frame_index == sr.frame_index
                assert br.new_reference == sr.new_reference
                assert br.sparse_stats == sr.sparse_stats
                assert br.reference_stats == sr.reference_stats
                assert br.overlap == sr.overlap
                assert br.mean_warp_angle_deg == sr.mean_warp_angle_deg
                assert np.array_equal(br.classification.warped,
                                      sr.classification.warped)
                assert np.array_equal(br.classification.disoccluded,
                                      sr.classification.disoccluded)
                assert np.array_equal(br.classification.void,
                                      sr.classification.void)

    def test_duplicated_sessions_identical_output(self, cached_run):
        """Two users of one workload see exactly the same frames."""
        result, _ = cached_run
        a = session_of(result, "vr-lego-00").result
        b = session_of(result, "vr-lego-01").result
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.image, fb.image)

    def test_ray_budget_ignores_cache_served_requests(self):
        """Cache-served reference requests render nothing, so they must
        not consume the per-round ray budget (which would defer sessions
        that actually render)."""
        budget = FAST.image_size * FAST.image_size  # one reference frame
        cache = SharedLRUCache(name="budget-refs", max_entries=16)
        cached = MultiSessionEngine(
            build_mixed_sessions("vr-lego:2", FAST, frames=2),
            ray_budget=budget, reference_cache=cache).run()
        uncached = MultiSessionEngine(
            build_mixed_sessions("vr-lego:2", FAST, frames=2),
            ray_budget=budget).run()
        # Without the cache the second session's reference blows the
        # budget and defers it a round; with it, both fit every round.
        assert cached.batch.cache_hits > 0
        assert cached.batch.rounds < uncached.batch.rounds

    def test_sessions_without_cache_key_bypass_cache(self):
        """Raw engine sessions (no workload identity) never touch the cache."""
        from repro.core.sparw import SparwRenderer
        from repro.engine import RenderSession
        from repro.harness.configs import build_renderer, make_camera
        from repro.scenes import orbit_trajectory

        renderer = build_renderer("directvoxgo", "lego", FAST)
        poses = orbit_trajectory(2, radius=FAST.orbit_radius).poses
        sessions = [
            RenderSession(f"anon{i}",
                          SparwRenderer(renderer, make_camera(FAST), window=2),
                          poses)
            for i in range(2)
        ]
        cache = SharedLRUCache(name="unused", max_entries=8)
        result = MultiSessionEngine(sessions, reference_cache=cache).run()
        assert result.batch.cache_hits == 0
        assert cache.report()["entries"] == 0
        assert cache.stats.lookups == 0


class TestServeHarnessParity:
    """A serve cell end-to-end: same rows either way, hit stats surfaced."""

    @pytest.fixture(scope="class")
    def serve_results(self):
        on, off = (execute_cell(RunConfig(mode="serve", workloads=MIX,
                                          frames=FRAMES, use_cache=use_cache),
                                config=FAST)
                   for use_cache in (True, False))
        return on.rows, on.summary, off.rows, off.summary

    def test_rows_identical(self, serve_results):
        rows_on, _, rows_off, _ = serve_results
        assert rows_on == rows_off

    def test_cache_stats_reported(self, serve_results):
        _, summary_on, _, summary_off = serve_results
        assert summary_on["cache_enabled"] is True
        assert summary_on["ref_cache_hits"] > 0
        assert 0.0 < summary_on["ref_cache_hit_rate"] <= 1.0
        assert summary_on["cache"]["references"]["hits"] \
            == summary_on["ref_cache_hits"]
        assert summary_off["cache_enabled"] is False

    def test_cached_run_renders_fewer_rays(self, serve_results):
        _, summary_on, _, summary_off = serve_results
        assert summary_on["total_rays"] < summary_off["total_rays"]
        # Latency/throughput pricing is off the recorded stats, which are
        # identical — so the aggregate numbers agree exactly.
        assert summary_on["aggregate_fps"] == summary_off["aggregate_fps"]
        assert summary_on["p95_latency_ms"] == summary_off["p95_latency_ms"]
