"""Tests for DS-2 and TEMP-N baselines."""

import numpy as np

from repro.baselines import DS2Renderer, bilinear_upsample
from repro.core.sparw import SparwRenderer
from repro.harness.configs import make_camera
from repro.metrics import mean_psnr


class TestBilinearUpsample:
    def test_shape(self):
        out = bilinear_upsample(np.zeros((4, 4, 3)), 8, 8)
        assert out.shape == (8, 8, 3)

    def test_constant_preserved(self):
        image = np.full((4, 4, 3), 0.7)
        out = bilinear_upsample(image, 8, 8)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)

    def test_linear_ramp_preserved(self):
        """Bilinear upsampling reproduces linear gradients (interior)."""
        x = np.linspace(0.0, 1.0, 8)
        image = np.tile(x[None, :, None], (8, 1, 3))
        out = bilinear_upsample(image, 16, 16)
        interior = out[4:-4, 4:-4, 0]
        grad = np.diff(interior, axis=1)
        assert (grad > 0).all()

    def test_identity_size(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(6, 6, 3))
        out = bilinear_upsample(image, 6, 6)
        np.testing.assert_allclose(out, image, atol=1e-9)

    def test_2d_input(self):
        out = bilinear_upsample(np.ones((4, 4)), 8, 8)
        assert out.shape == (8, 8)


class TestDS2:
    def test_renders_full_resolution(self, fast_renderer, fast_sequence,
                                     fast_config):
        trajectory, _ = fast_sequence
        ds2 = DS2Renderer(fast_renderer, make_camera(fast_config))
        frame, stats = ds2.render_frame(trajectory[0])
        assert frame.image.shape == (fast_config.image_size,
                                     fast_config.image_size, 3)

    def test_quarter_ray_count(self, fast_renderer, fast_sequence,
                               fast_config):
        trajectory, _ = fast_sequence
        ds2 = DS2Renderer(fast_renderer, make_camera(fast_config))
        _, stats = ds2.render_frame(trajectory[0])
        full_rays = fast_config.image_size**2
        assert stats.num_rays == full_rays // 4

    def test_quality_below_full_render(self, fast_renderer, fast_sequence,
                                       fast_config):
        trajectory, gt = fast_sequence
        camera = make_camera(fast_config)
        ds2 = DS2Renderer(fast_renderer, camera)
        frames, _ = ds2.render_sequence(trajectory.poses[:3])
        full = [fast_renderer.render_frame(camera.with_pose(p))[0]
                for p in trajectory.poses[:3]]
        gt_images = [f.image for f in gt[:3]]
        assert (mean_psnr([f.image for f in frames], gt_images)
                <= mean_psnr([f.image for f in full], gt_images) + 0.3)


    def test_depth_and_hit_are_the_half_resolution_ones_repeated(
            self, fast_renderer, fast_sequence, fast_config):
        trajectory, _ = fast_sequence
        camera = make_camera(fast_config)
        frame, _ = DS2Renderer(fast_renderer, camera).render_frame(
            trajectory[0])
        low, _ = fast_renderer.render_frame(
            camera.scaled(0.5).with_pose(trajectory[0]))
        # Nearest-neighbour: each low-res pixel covers a 2x2 block.
        for dy in (0, 1):
            for dx in (0, 1):
                np.testing.assert_array_equal(frame.depth[dy::2, dx::2],
                                              low.depth)
                np.testing.assert_array_equal(frame.hit[dy::2, dx::2],
                                              low.hit)
        assert 0.0 <= frame.image.min() and frame.image.max() <= 1.0
        np.testing.assert_array_equal(frame.c2w, trajectory[0])

    def test_sequence_stats_sum_the_frames(self, fast_renderer,
                                           fast_sequence, fast_config):
        trajectory, _ = fast_sequence
        ds2 = DS2Renderer(fast_renderer, make_camera(fast_config))
        frames, total = ds2.render_sequence(trajectory.poses[:2])
        assert len(frames) == 2
        assert total.num_rays == 2 * (fast_config.image_size ** 2 // 4)


class TestTemporal:
    def test_renders_sequence(self, fast_renderer, fast_sequence, fast_config):
        trajectory, _ = fast_sequence
        temp = SparwRenderer(fast_renderer, make_camera(fast_config),
                             window=4, policy="on_trajectory")
        result = temp.render_sequence(trajectory.poses)
        assert result.num_frames == len(trajectory.poses)

    def test_only_bootstrap_reference(self, fast_renderer, fast_sequence,
                                      fast_config):
        """Chained policy renders one full frame, then reuses outputs."""
        trajectory, _ = fast_sequence
        temp = SparwRenderer(fast_renderer, make_camera(fast_config),
                             window=4, policy="on_trajectory")
        result = temp.render_sequence(trajectory.poses)
        assert result.num_references == 1

    def test_worse_than_sparw(self, fast_renderer, fast_sequence,
                              fast_config):
        """The paper's claim: TEMP accumulates error; SPARW does not."""
        trajectory, gt = fast_sequence
        camera = make_camera(fast_config)
        gt_images = [f.image for f in gt]

        temp = SparwRenderer(fast_renderer, camera, window=4,
                             policy="on_trajectory")
        temp_psnr = mean_psnr(
            [f.image for f in temp.render_sequence(trajectory.poses).frames],
            gt_images)
        sparw = SparwRenderer(fast_renderer, camera, window=4)
        sparw_psnr = mean_psnr(
            [f.image for f in sparw.render_sequence(trajectory.poses).frames],
            gt_images)
        # At the 8-frame test scale TEMP's accumulation barely bites; demand
        # parity here (the fig16 bench shows the multi-dB gap at full scale).
        assert sparw_psnr >= temp_psnr - 0.3
