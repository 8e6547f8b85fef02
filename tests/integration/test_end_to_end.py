"""Integration tests: full pipelines across module boundaries."""

import numpy as np
import pytest

from repro.core.sparw import SparwRenderer
from repro.core.streaming import FullyStreamingScheduler
from repro.harness import FAST, full_frame_profile
from repro.harness.configs import build_renderer, ground_truth_sequence, make_camera
from repro.harness.figures import run_sparw, sparw_workloads_from_result
from repro.hw import RemoteConfig, RemoteScenario, SoCModel
from repro.metrics import mean_psnr, psnr


class TestFullStack:
    """Render -> analyse -> price, across all three algorithms."""

    @pytest.mark.parametrize("algorithm",
                             ["directvoxgo", "instant_ngp", "tensorf"])
    def test_profile_and_price(self, algorithm):
        profile = full_frame_profile(algorithm, "lego", FAST)
        soc = SoCModel(feature_dim=FAST.feature_dim)
        base = soc.price_nerf(profile.workload, "baseline")
        cicero = soc.price_nerf(profile.workload, "cicero")
        assert base.time_s > cicero.time_s > 0.0
        assert base.energy_j > cicero.energy_j > 0.0

    @pytest.mark.parametrize("algorithm",
                             ["directvoxgo", "instant_ngp", "tensorf"])
    def test_render_quality_floor(self, algorithm):
        _, gt = ground_truth_sequence("lego", FAST)
        renderer = build_renderer(algorithm, "lego", FAST)
        camera = make_camera(FAST, gt[0].c2w)
        frame, _ = renderer.render_frame(camera)
        assert psnr(frame.image, gt[0].image) > 13.0


class TestSparwEndToEnd:
    def test_speedup_and_quality_tradeoff(self):
        """The headline result at test scale: real speed-up, small PSNR drop."""
        _, gt = ground_truth_sequence("lego", FAST)
        gt_images = [f.image for f in gt]
        profile = full_frame_profile("directvoxgo", "lego", FAST)
        result = run_sparw("directvoxgo", "lego", FAST, window=4)
        wls = sparw_workloads_from_result(result, profile, window=4)

        soc = SoCModel(feature_dim=FAST.feature_dim)
        base = soc.price_nerf(profile.workload, "baseline")
        cicero = soc.price_sparw_local(wls, "cicero")
        speedup = base.time_s / cicero.time_s
        assert speedup > 3.0

        sparw_psnr = mean_psnr([f.image for f in result.frames], gt_images)
        renderer = build_renderer("directvoxgo", "lego", FAST)
        camera = make_camera(FAST)
        trajectory, _ = ground_truth_sequence("lego", FAST)
        baseline_frames = [renderer.render_frame(camera.with_pose(p))[0]
                           for p in trajectory.poses]
        base_psnr = mean_psnr([f.image for f in baseline_frames], gt_images)
        assert sparw_psnr > base_psnr - 1.5

    def test_remote_scenario_prices(self):
        profile = full_frame_profile("directvoxgo", "lego", FAST)
        result = run_sparw("directvoxgo", "lego", FAST, window=4)
        wls = sparw_workloads_from_result(result, profile, window=4)
        soc = SoCModel(feature_dim=FAST.feature_dim)
        remote = RemoteScenario(soc, RemoteConfig())
        frame_bytes = FAST.image_size**2 * 4
        base = remote.price_baseline_remote(profile.workload, frame_bytes)
        cic = remote.price_sparw_remote(wls, "cicero", frame_bytes)
        assert cic.time_s < base.time_s
        assert base.energy_j < cic.energy_j  # offloading wins on energy


class TestStreamingEquivalence:
    def test_memory_centric_rendering_is_lossless(self):
        """Reordering samples by MVoxel must not change the rendered frame.

        This is the correctness property behind fully-streaming rendering:
        gather results are order-independent, so the memory-centric schedule
        can only change *when* features are fetched, never what is computed.
        """
        from repro.core.streaming import streaming_execution_order
        renderer = build_renderer("directvoxgo", "lego", FAST)
        field = renderer.field
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.4, 1.4, size=(2000, 3))
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        group = field.gather_plan(pts)[0]
        order = streaming_execution_order(group)
        sigma_direct, rgb_direct = field.query(pts, dirs)
        sigma_stream, rgb_stream = field.query(pts[order], dirs[order])
        np.testing.assert_allclose(sigma_stream, sigma_direct[order],
                                   atol=1e-10)
        np.testing.assert_allclose(rgb_stream, rgb_direct[order], atol=1e-10)

    def test_fs_traffic_less_than_uncached_baseline(self):
        profile = full_frame_profile("directvoxgo", "lego", FAST)
        scheduler = FullyStreamingScheduler(
            FAST.vft_buffer_bytes, None, FAST.cache_block_bytes)
        report = scheduler.analyze(profile.gather_groups)
        assert report.fs_bytes < report.baseline_bytes
        assert report.fs_streaming_fraction == pytest.approx(1.0)


class TestDeterminism:
    def test_sequences_are_reproducible(self):
        a = run_sparw("directvoxgo", "lego", FAST, window=4)
        renderer = build_renderer("directvoxgo", "lego", FAST)
        camera = make_camera(FAST)
        trajectory, _ = ground_truth_sequence("lego", FAST)
        fresh = SparwRenderer(renderer, camera,
                              window=4).render_sequence(trajectory.poses)
        np.testing.assert_allclose(a.frames[3].image, fresh.frames[3].image,
                                   atol=1e-12)
