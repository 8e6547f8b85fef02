"""Tests for pixel classification and overlap metrics."""

import numpy as np
import pytest

from instruments import void_fraction
from repro.core.sparw import classify_pixels, overlap_fraction, warp_frame
from repro.core.sparw.warp import WarpResult


def _synthetic_warp(height=8, width=8):
    covered = np.zeros((height, width), dtype=bool)
    void = np.zeros((height, width), dtype=bool)
    covered[:, :4] = True
    void[:, 6:] = True
    angle = np.zeros((height, width))
    angle[:, 1] = 10.0  # wide-angle column inside the covered region
    return WarpResult(
        image=np.zeros((height, width, 3)),
        depth=np.where(covered, 1.0, np.inf),
        covered=covered,
        void=void,
        warp_angle_deg=angle,
    )


class TestClassify:
    def test_partition_covers_all_pixels(self):
        warp = _synthetic_warp()
        cls = classify_pixels(warp)
        total = cls.warped | cls.disoccluded | cls.void
        assert total.all()
        assert not (cls.warped & cls.disoccluded).any()
        assert not (cls.warped & cls.void).any()

    def test_fractions_sum_to_one(self):
        cls = classify_pixels(_synthetic_warp())
        assert (cls.warped_fraction + cls.disoccluded_fraction
                + void_fraction(cls)) == pytest.approx(1.0)

    def test_angle_threshold_demotes_pixels(self):
        warp = _synthetic_warp()
        plain = classify_pixels(warp)
        strict = classify_pixels(warp, angle_threshold_deg=5.0)
        assert strict.warped_fraction < plain.warped_fraction
        assert strict.disoccluded_fraction > plain.disoccluded_fraction
        # Column 1 (angle 10 deg) must be demoted.
        assert not strict.warped[:, 1].any()
        assert strict.disoccluded[:, 1].all()

    def test_rerender_ids_are_disoccluded_pixels(self):
        cls = classify_pixels(_synthetic_warp())
        ids = cls.rerender_pixel_ids()
        flat = cls.disoccluded.reshape(-1)
        np.testing.assert_array_equal(np.nonzero(flat)[0], ids)

    def test_no_threshold_keeps_all_covered(self):
        warp = _synthetic_warp()
        cls = classify_pixels(warp, angle_threshold_deg=None)
        np.testing.assert_array_equal(cls.warped, warp.covered)


class TestOverlap:
    def test_full_overlap(self):
        warp = _synthetic_warp()
        warp.covered[:] = True
        warp.void[:] = False
        assert overlap_fraction(warp) == pytest.approx(1.0)

    def test_counts_void_as_overlapped(self):
        warp = _synthetic_warp()  # half covered, quarter void, quarter hole
        assert overlap_fraction(warp) == pytest.approx(1.0 - 2.0 / 8.0)

    def test_real_adjacent_frames_high_overlap(self, lego_scene, small_camera,
                                               gt_frame):
        from repro.scenes import orbit_trajectory
        traj = orbit_trajectory(2, 3.2, degrees_per_frame=0.5)
        from repro.scenes import RayTracer
        tracer = RayTracer(lego_scene)
        ref = tracer.render(small_camera.with_pose(traj[0]))
        warp = warp_frame(ref, small_camera.with_pose(traj[0]),
                          small_camera.with_pose(traj[1]))
        assert overlap_fraction(warp) > 0.95
