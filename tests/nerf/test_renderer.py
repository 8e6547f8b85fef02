"""Tests for the pixel-centric NeRF renderer."""

import copy

import numpy as np
import pytest

from repro.harness.configs import FAST, build_renderer
from repro.metrics import psnr


class TestRenderFrame:
    def test_frame_matches_ground_truth_reasonably(self, nerf_frame, gt_frame):
        frame, _ = nerf_frame
        assert psnr(frame.image, gt_frame.image) > 18.0

    def test_hit_mask_close_to_gt(self, nerf_frame, gt_frame):
        frame, _ = nerf_frame
        agreement = (frame.hit == gt_frame.hit).mean()
        assert agreement > 0.93

    def test_depth_close_on_hits(self, nerf_frame, gt_frame):
        frame, _ = nerf_frame
        both = frame.hit & gt_frame.hit
        err = np.abs(frame.depth[both] - gt_frame.depth[both])
        assert np.median(err) < 0.1

    def test_background_filled(self, nerf_frame, gt_frame):
        frame, _ = nerf_frame
        bg = ~frame.hit & ~gt_frame.hit
        assert psnr(frame.image, gt_frame.image, mask=bg) > 25.0

    def test_stats_populated(self, nerf_frame, small_camera):
        _, out = nerf_frame
        assert out.stats.num_rays == small_camera.width * small_camera.height
        assert out.stats.num_samples > 0
        assert out.stats.mlp_macs > 0
        assert out.stats.gather_vertex_accesses == 8 * out.stats.num_samples

    def test_gather_groups_recorded(self, nerf_frame):
        _, out = nerf_frame
        assert len(out.gather_groups) >= 1
        total = sum(g.num_samples for g in out.gather_groups)
        assert total == out.stats.num_samples


class TestRenderPixels:
    def test_sparse_matches_full_frame(self, small_renderer, small_camera,
                                       nerf_frame):
        frame, _ = nerf_frame
        ids = np.array([0, 777, 1200, 48 * 48 - 1])
        colors, depth, _ = small_renderer.render_pixels(small_camera, ids)
        np.testing.assert_allclose(colors, frame.image.reshape(-1, 3)[ids],
                                   atol=1e-9)
        np.testing.assert_allclose(depth, frame.depth.reshape(-1)[ids],
                                   atol=1e-9)

    def test_empty_pixel_set(self, small_renderer, small_camera):
        colors, depth, out = small_renderer.render_pixels(
            small_camera, np.array([], dtype=np.int64))
        assert colors.shape == (0, 3)
        assert out.stats.num_samples == 0

    def test_chunking_is_invisible(self, small_renderer, small_camera):
        """Chunked and unchunked rendering must agree exactly."""
        tiny_chunks = copy.copy(small_renderer)
        tiny_chunks.chunk_size = 97
        a, _ = small_renderer.render_frame(small_camera)
        b, _ = tiny_chunks.render_frame(small_camera)
        np.testing.assert_allclose(a.image, b.image, atol=1e-12)
        np.testing.assert_allclose(a.depth, b.depth, atol=1e-9)


class TestGatherAccounting:
    """Gather counts come from a per-field constant, not per-chunk plans."""

    @pytest.mark.parametrize("algorithm",
                             ["directvoxgo", "instant_ngp", "tensorf"])
    def test_counts_equal_full_plan_without_per_chunk_plans(
            self, algorithm, small_camera, monkeypatch):
        renderer = copy.copy(build_renderer(algorithm, "lego", FAST))
        renderer.chunk_size = 97
        origins, directions = small_camera.generate_rays()
        origins = origins.reshape(-1, 3)[::4]
        directions = directions.reshape(-1, 3)[::4]
        split = origins.shape[0] // 3
        bundles = [(origins[:split], directions[:split]),
                   (origins[split:], directions[split:])]

        # The record_gather path builds every sample's plan: the oracle.
        planned = [renderer.render_rays(o, d, record_gather=True).stats
                   for o, d in bundles]

        field_type = type(renderer.field)
        real_plan = field_type.gather_plan
        calls = []

        def counting_plan(field, points):
            calls.append(len(points))
            return real_plan(field, points)

        monkeypatch.setattr(field_type, "gather_plan", counting_plan)
        single = [renderer.render_rays(o, d).stats for o, d in bundles]
        batched = [out.stats for out in renderer.render_ray_batch(bundles)]
        assert origins.shape[0] > 4 * renderer.chunk_size
        assert len(calls) <= 1  # at most the field's first pricing

        for want, *gots in zip(planned, single, batched):
            assert want.num_samples > 0
            for got in gots:
                assert got.num_samples == want.num_samples
                assert (got.gather_vertex_accesses
                        == want.gather_vertex_accesses)
                assert got.gather_bytes == want.gather_bytes


class TestStatsMerge:
    def test_merge_adds_counts(self):
        from repro.nerf import RenderStats
        a = RenderStats(num_rays=10, num_samples=100, mlp_macs=1000,
                        gather_vertex_accesses=800, gather_bytes=25600)
        b = RenderStats(num_rays=5, num_samples=50, mlp_macs=500,
                        gather_vertex_accesses=400, gather_bytes=12800)
        c = a.merge(b)
        assert c.num_rays == 15
        assert c.num_samples == 150
        assert c.gather_bytes == 38400
