"""Tests for the experiment harness: configs, reporting, runners."""

import numpy as np
import pytest

from repro.harness import (
    ALGORITHMS,
    FAST,
    EXPERIMENTS,
    build_field,
    build_renderer,
    format_table,
    full_frame_profile,
    ground_truth_sequence,
    make_camera,
)
from repro.harness.reporting import format_value


class TestConfigs:
    def test_three_algorithms(self):
        assert set(ALGORITHMS) == {"instant_ngp", "directvoxgo", "tensorf"}

    def test_field_cache_returns_same_object(self):
        a = build_field("directvoxgo", "lego", FAST)
        b = build_field("directvoxgo", "lego", FAST)
        assert a is b

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            build_field("plenoxels", "lego", FAST)

    def test_renderer_has_occupancy(self):
        renderer = build_renderer("directvoxgo", "lego", FAST)
        assert renderer.sampler.occupancy is not None

    def test_gt_sequence_cached_and_consistent(self):
        t1, f1 = ground_truth_sequence("lego", FAST)
        t2, f2 = ground_truth_sequence("lego", FAST)
        assert len(f1) == FAST.num_frames
        np.testing.assert_allclose(t1[0], t2[0])

    def test_camera_matches_config(self):
        camera = make_camera(FAST)
        assert camera.width == FAST.image_size


class TestReporting:
    def test_format_value(self):
        assert format_value(1.23456) == "1.235"
        assert format_value(float("inf")) == "inf"
        assert format_value(12345.0) == "12,345"
        assert format_value("abc") == "abc"
        assert format_value(True) == "True"

    def test_format_table_alignment(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 22.5, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestProfile:
    def test_profile_fields(self):
        profile = full_frame_profile("directvoxgo", "lego", FAST)
        assert profile.workload.num_samples > 0
        assert profile.conflict_slowdown >= 1.0
        assert profile.streaming_report.fs_bytes > 0
        assert len(profile.gather_groups) == 1

    def test_hash_profile_multi_group(self):
        profile = full_frame_profile("instant_ngp", "lego", FAST)
        assert len(profile.gather_groups) == FAST.hash_levels


class TestExperimentRegistry:
    def test_all_figures_registered(self):
        expected = {"fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
                    "fig09", "fig16", "fig17", "fig18", "fig19", "fig20",
                    "fig21", "fig22", "fig23", "fig24", "fig25", "fig26"}
        assert expected == set(EXPERIMENTS)

    def test_fig23_normalized_at_32kb(self):
        rows = EXPERIMENTS["fig23"](FAST, sizes_kb=(16, 32, 64))
        at32 = next(r for r in rows if r["vft_kb"] == 32)
        assert at32["normalized_energy"] == pytest.approx(1.0)
