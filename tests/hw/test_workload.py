"""Tests for workload descriptors and their construction from render stats."""

import pytest

from repro.hw import FrameWorkload, GatherTraffic, workload_from_stats
from repro.nerf import RenderStats


class TestGatherTraffic:
    def test_totals(self):
        traffic = GatherTraffic(100.0, 50.0)
        assert traffic.total_bytes == 150.0

    def test_scaled(self):
        traffic = GatherTraffic(100.0, 50.0).scaled(0.5)
        assert traffic.streaming_bytes == 50.0
        assert traffic.random_bytes == 25.0


class TestWorkloadFromStats:
    @pytest.fixture
    def stats(self):
        return RenderStats(num_rays=100, num_samples=5000,
                           mlp_macs=5000 * 2000,
                           gather_vertex_accesses=40000,
                           gather_bytes=40000 * 32)

    def test_basic_mapping(self, stats):
        wl = workload_from_stats(stats)
        assert wl.num_rays == 100
        assert wl.num_samples == 5000
        assert wl.vertices_per_sample == pytest.approx(8.0)

    def test_without_report_all_random(self, stats):
        wl = workload_from_stats(stats)
        assert wl.baseline_traffic.random_bytes == stats.gather_bytes
        assert wl.baseline_traffic.streaming_bytes == 0.0

    def test_with_report_traffic_copied(self, stats, gather_groups):
        from repro.core.streaming import FullyStreamingScheduler
        report = FullyStreamingScheduler(
            32 * 1024, None, 64).analyze(gather_groups)
        wl = workload_from_stats(stats, streaming_report=report)
        assert wl.streaming_traffic.streaming_bytes == report.fs_streaming_bytes
        assert wl.rit_bytes == sum(g.rit_bytes for g in report.groups)

    def test_conflict_slowdown_passthrough(self, stats):
        wl = workload_from_stats(stats, conflict_slowdown=3.5)
        assert wl.gather_conflict_slowdown == 3.5

    def test_warp_points_passthrough(self, stats):
        wl = workload_from_stats(stats, warp_points=9216)
        assert wl.warp_points == 9216

    def test_empty_stats_safe(self):
        wl = workload_from_stats(RenderStats())
        assert wl.num_samples == 0
        assert wl.vertices_per_sample == 8.0  # default retained


class TestWorkloadMergeScale:
    def test_scale_halves_counts_and_keeps_rates(self):
        wl = FrameWorkload(num_rays=10, num_samples=100, mlp_macs=1000,
                           gather_accesses=800, gather_bytes=6400,
                           baseline_traffic=GatherTraffic(10.0, 20.0),
                           streaming_traffic=GatherTraffic(30.0, 0.0),
                           rit_bytes=48, gather_conflict_slowdown=2.5,
                           warp_points=64, vertices_per_sample=4.0)
        half = wl.scaled(0.5)
        assert (half.num_rays, half.num_samples, half.mlp_macs) == (
            5, 50, 500)
        assert (half.gather_accesses, half.gather_bytes, half.rit_bytes,
                half.warp_points) == (400, 3200, 24, 32)
        assert half.baseline_traffic == GatherTraffic(5.0, 10.0)
        assert half.streaming_traffic == GatherTraffic(15.0, 0.0)
        # Per-access properties are not amounts: they do not scale.
        assert half.gather_conflict_slowdown == 2.5
        assert half.vertices_per_sample == 4.0

    def test_scale_zero(self):
        wl = FrameWorkload(num_samples=100, mlp_macs=1000,
                           baseline_traffic=GatherTraffic(10.0, 20.0))
        zero = wl.scaled(0.0)
        assert zero.num_samples == 0
        assert zero.baseline_traffic.total_bytes == 0.0
