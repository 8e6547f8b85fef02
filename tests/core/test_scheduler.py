"""Tests for the fully-streaming scheduler."""

import numpy as np
import pytest

from repro.core.streaming import (
    FullyStreamingScheduler,
    StreamingReport,
    streaming_execution_order,
)


@pytest.fixture(scope="module")
def scheduler():
    return FullyStreamingScheduler(buffer_bytes=32 * 1024,
                                   baseline_cache_bytes=64 * 1024)


class TestScheduleGroup:
    def test_streamable_group_fully_streaming(self, gather_groups, scheduler):
        report, rit, layout = scheduler.schedule_group(gather_groups[0])
        assert report.streamable
        assert report.fs_random_bytes == 0
        assert rit is not None and layout is not None

    def test_fs_traffic_bounded_by_model_and_occupancy(self, gather_groups,
                                                       scheduler):
        report, rit, layout = scheduler.schedule_group(gather_groups[0])
        assert report.fs_streaming_bytes == (report.occupied_mvoxels
                                             * layout.mvoxel_bytes)
        assert report.occupied_mvoxels <= report.total_mvoxels

    def test_rit_bytes_accounted(self, gather_groups, scheduler):
        report, rit, _ = scheduler.schedule_group(gather_groups[0])
        assert report.rit_bytes == rit.table_bytes

    def test_baseline_includes_cache_filtering(self, gather_groups):
        no_cache = FullyStreamingScheduler(baseline_cache_bytes=None)
        cached = FullyStreamingScheduler(baseline_cache_bytes=1024 * 1024)
        a, _, _ = no_cache.schedule_group(gather_groups[0])
        b, _, _ = cached.schedule_group(gather_groups[0])
        assert b.baseline_bytes <= a.baseline_bytes

    def test_nonstreamable_group_reverts(self, scheduler, lego_scene):
        from repro.nerf import HashGridField, VoxelGridField
        reference = VoxelGridField.bake(lego_scene, resolution=32)
        field = HashGridField.bake(lego_scene, num_levels=4,
                                   finest_resolution=32, table_size=1 << 12,
                                   reference=reference)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(500, 3))
        hashed = [g for g in field.gather_plan(pts) if not g.streamable][0]
        report, rit, layout = scheduler.schedule_group(hashed)
        assert not report.streamable
        assert rit is None and layout is None
        assert report.fs_bytes == report.baseline_bytes


class TestAggregateReport:
    def test_totals_sum_groups(self, gather_groups, scheduler):
        report = scheduler.analyze(gather_groups)
        assert report.baseline_bytes == sum(g.baseline_bytes
                                            for g in report.groups)
        assert report.fs_bytes == sum(g.fs_bytes for g in report.groups)

    def test_baseline_splits_into_streaming_and_random(self, gather_groups,
                                                       scheduler):
        report = scheduler.analyze(gather_groups)
        assert (report.baseline_streaming_bytes + report.baseline_random_bytes
                == report.baseline_bytes)
        assert report.baseline_streaming_bytes == sum(
            g.baseline_streaming_bytes for g in report.groups)

    def test_traffic_reduction_is_baseline_over_fs(self, gather_groups,
                                                   scheduler):
        report = scheduler.analyze(gather_groups)
        assert report.traffic_reduction == pytest.approx(
            report.baseline_bytes / report.fs_bytes)
        assert StreamingReport().traffic_reduction == 0.0
        assert StreamingReport().fs_streaming_fraction == 1.0

    def test_streaming_fraction_of_pure_grid_is_one(self, gather_groups,
                                                    scheduler):
        report = scheduler.analyze(gather_groups)
        assert report.fs_streaming_fraction == pytest.approx(1.0)


class TestReversionHelpers:
    """The streamable / reverted split as the scheduler's report shows it."""

    @pytest.fixture(scope="class")
    def hash_groups(self, lego_scene):
        from repro.nerf import HashGridField, VoxelGridField
        reference = VoxelGridField.bake(lego_scene, resolution=32)
        field = HashGridField.bake(lego_scene, num_levels=4,
                                   finest_resolution=32, table_size=1 << 12,
                                   reference=reference)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 3))
        return field.gather_plan(pts)

    def test_split(self, hash_groups, scheduler):
        report = scheduler.analyze(hash_groups)
        assert [g.streamable for g in report.groups] == [
            g.streamable for g in hash_groups]
        for group in report.groups:
            if group.streamable:
                assert group.occupied_mvoxels > 0 and group.fs_random_bytes == 0
            else:
                assert group.occupied_mvoxels == 0 and group.rit_bytes == 0

    def test_reverted_fraction_zero_for_grid(self, gather_groups, scheduler):
        report = scheduler.analyze(gather_groups)
        assert all(g.streamable for g in report.groups)
        assert report.fs_random_bytes == 0

    def test_reverted_fraction_for_hash(self, hash_groups, scheduler):
        report = scheduler.analyze(hash_groups)
        assert any(g.streamable for g in report.groups)
        assert not all(g.streamable for g in report.groups)
        assert 0.0 < report.fs_streaming_fraction < 1.0


class TestExecutionOrder:
    def test_order_is_permutation(self, gather_groups):
        order = streaming_execution_order(gather_groups[0])
        assert np.sort(order).tolist() == list(range(
            gather_groups[0].num_samples))

    def test_reordered_interpolation_identical(self, small_field):
        """Memory-centric reordering must not change rendered values."""
        pts = np.random.default_rng(1).uniform(-1.2, 1.2, size=(400, 3))
        group = small_field.gather_plan(pts)[0]
        order = streaming_execution_order(group)
        direct = small_field.interpolate(pts)
        reordered = small_field.interpolate(pts[order])
        np.testing.assert_allclose(reordered, direct[order], atol=1e-12)
