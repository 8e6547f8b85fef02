"""Tests for the pixel-centric NeRF renderer."""

import copy

import numpy as np
import pytest

from reference_kernels import render_rays_reference
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


class TestOneChunkLoop:
    """``render_rays`` is bit-equal to its former loop of its own.

    The former loop (``reference_kernels.render_rays_reference``) is the
    oracle for the one-bundle case of the shared chunk loop.
    """

    @staticmethod
    def _bundle(kind, camera, bounds):
        origins, directions = camera.generate_rays()
        origins, directions = origins.reshape(-1, 3), directions.reshape(-1, 3)
        if kind == "empty":
            return origins[:0], directions[:0]
        if kind == "miss":  # start past the field's far corner, look away
            origins = np.broadcast_to(np.asarray(bounds[1]) + 1.0,
                                      origins.shape)
            return origins, np.abs(directions)
        return origins, directions

    @pytest.mark.parametrize("kind", ["frame", "empty", "miss"])
    @pytest.mark.parametrize("record_gather", [False, True])
    @pytest.mark.parametrize("chunk_size", [None, 97])
    @pytest.mark.parametrize("algorithm",
                             ["directvoxgo", "instant_ngp", "tensorf"])
    def test_bit_equal_to_reference_loop(self, algorithm, chunk_size,
                                         record_gather, kind, small_camera):
        renderer = copy.copy(build_renderer(algorithm, "lego", FAST))
        if chunk_size is not None:
            renderer.chunk_size = chunk_size
        origins, directions = self._bundle(kind, small_camera,
                                           renderer.field.bounds)

        got = renderer.render_rays(origins, directions, record_gather)
        want = render_rays_reference(renderer, origins, directions,
                                     record_gather)
        for name in ("rgb", "depth_t", "opacity"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        assert got.stats == want.stats
        assert len(got.gather_groups) == len(want.gather_groups)
        for mine, theirs in zip(got.gather_groups, want.gather_groups):
            np.testing.assert_array_equal(mine.vertex_ids, theirs.vertex_ids)
        if kind == "frame":
            assert want.stats.num_samples > 0
            assert bool(want.gather_groups) == record_gather
        else:
            assert want.stats.num_samples == 0

    @pytest.mark.parametrize("algorithm",
                             ["directvoxgo", "instant_ngp", "tensorf"])
    def test_batch_bundles_bit_equal_to_reference_loop(self, algorithm,
                                                       small_camera):
        """Bundle chunks that straddle the shared stream's chunks."""
        renderer = copy.copy(build_renderer(algorithm, "lego", FAST))
        renderer.chunk_size = 97
        origins, directions = self._bundle("frame", small_camera,
                                           renderer.field.bounds)
        miss = self._bundle("miss", small_camera, renderer.field.bounds)
        bundles = [(origins[:150], directions[:150]),
                   (origins[:0], directions[:0]),
                   (miss[0][:60], miss[1][:60]),
                   (origins[150:1000], directions[150:1000]),
                   (origins[1000:1003], directions[1000:1003]),
                   (origins[1003:], directions[1003:])]

        for (o, d), got in zip(bundles, renderer.render_ray_batch(bundles)):
            want = render_rays_reference(renderer, o, d)
            for name in ("rgb", "depth_t", "opacity"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert got.stats == want.stats


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
