"""Tests for the end-to-end SPARW rendering pipeline."""

import numpy as np
import pytest

from instruments import void_fraction
from repro.core.sparw import SparwRenderer
from repro.metrics import mean_psnr


@pytest.fixture(scope="module")
def sparw_result(fast_renderer, fast_sequence, fast_config):
    from repro.harness.configs import make_camera
    trajectory, _ = fast_sequence
    camera = make_camera(fast_config)
    sparw = SparwRenderer(fast_renderer, camera, window=4)
    return sparw.render_sequence(trajectory.poses)


class TestSequenceStructure:
    def test_frame_count(self, sparw_result, fast_config):
        assert sparw_result.num_frames == fast_config.num_frames

    def test_reference_count_matches_window(self, sparw_result, fast_config):
        expected = -(-fast_config.num_frames // 4)  # ceil(frames / window)
        assert sparw_result.num_references == expected

    def test_first_frame_is_reference_boundary(self, sparw_result):
        assert sparw_result.records[0].new_reference

    def test_sparse_work_much_smaller_than_reference(self, sparw_result):
        sparse = sparw_result.total_sparse_stats()
        reference = sparw_result.total_reference_stats()
        # Sparse re-rendering must be a small fraction of full-frame work.
        assert sparse.num_rays < 0.35 * reference.num_rays

    def test_mean_fractions_partition(self, sparw_result):
        for record in sparw_result.records:
            c = record.classification
            assert (c.warped_fraction + c.disoccluded_fraction
                    + void_fraction(c)) == pytest.approx(1.0)

    def test_overlap_high_on_smooth_orbit(self, sparw_result):
        overlaps = [r.overlap for r in sparw_result.records]
        assert np.mean(overlaps) > 0.85


class TestQuality:
    def test_close_to_full_rendering(self, sparw_result, fast_renderer,
                                     fast_sequence, fast_config):
        from repro.harness.configs import make_camera
        trajectory, gt = fast_sequence
        camera = make_camera(fast_config)
        baseline = [fast_renderer.render_frame(camera.with_pose(p))[0]
                    for p in trajectory.poses]
        base_psnr = mean_psnr([f.image for f in baseline],
                              [f.image for f in gt])
        sparw_psnr = mean_psnr([f.image for f in sparw_result.frames],
                               [f.image for f in gt])
        assert sparw_psnr > base_psnr - 1.5

    def test_depth_maps_produced(self, sparw_result):
        frame = sparw_result.frames[2]
        assert np.isfinite(frame.depth[frame.hit]).all()
        assert np.isinf(frame.depth[~frame.hit]).all()


class TestPolicies:
    def test_on_trajectory_accumulates_error(self, fast_renderer,
                                             fast_sequence, fast_config):
        from repro.harness.configs import make_camera
        trajectory, gt = fast_sequence
        camera = make_camera(fast_config)
        chained = SparwRenderer(fast_renderer, camera, window=8,
                                policy="on_trajectory")
        result = chained.render_sequence(trajectory.poses)
        gt_images = [f.image for f in gt]
        early = mean_psnr([result.frames[1].image], [gt_images[1]])
        late = mean_psnr([result.frames[-1].image], [gt_images[-1]])
        assert late < early + 0.5  # error accumulates (or at best holds)

    def test_unknown_policy_rejected(self, fast_renderer, fast_config):
        from repro.harness.configs import make_camera
        with pytest.raises(ValueError):
            SparwRenderer(fast_renderer, make_camera(fast_config),
                          policy="bogus")

    def test_angle_threshold_increases_sparse_work(self, fast_renderer,
                                                   fast_sequence,
                                                   fast_config):
        from repro.harness.configs import make_camera
        trajectory, _ = fast_sequence
        camera = make_camera(fast_config)
        lax = SparwRenderer(fast_renderer, camera, window=4)
        strict = SparwRenderer(fast_renderer, camera, window=4,
                               angle_threshold_deg=0.2)
        lax_result = lax.render_sequence(trajectory.poses[:6])
        strict_result = strict.render_sequence(trajectory.poses[:6])
        assert (strict_result.total_sparse_stats().num_rays
                >= lax_result.total_sparse_stats().num_rays)
