"""Exact-parity contract of the parallel backend's worker pool.

Workers are forked from the dispatching process and render with the very
renderers it holds — baked tables included, as copy-on-write views of
its own arrays — running the same deterministic numpy kernels, so every
per-bundle result must be bit-identical to calling ``render_rays`` in
the dispatching process, for every field kind.  The pool forks when it
first has bundles to render and again only for a renderer its workers
were not forked with; the ``pool.forks`` counter of the active metrics
registry counts both.
"""

import numpy as np
import pytest

from repro.backend.parallel import WorkerPool, shutdown_pool
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST, build_renderer, make_camera
from repro.obs import MetricsRegistry, Observation, activate
from repro.scenes import orbit_trajectory
from repro.workloads import build_mixed_sessions

from pool_bundles import render_bundles


@pytest.fixture(scope="module")
def bundles(fast_config):
    camera = make_camera(fast_config)
    trajectory = orbit_trajectory(3, radius=fast_config.orbit_radius,
                                  degrees_per_frame=15.0)
    out = []
    for pose in trajectory.poses:
        origins, directions = camera.with_pose(pose).generate_rays()
        out.append((origins.reshape(-1, 3), directions.reshape(-1, 3)))
    return out


@pytest.fixture(scope="module")
def pool_results(fast_renderer, bundles):
    pool = WorkerPool(2)
    try:
        return render_bundles(pool, fast_renderer, bundles)
    finally:
        pool.shutdown()


def _assert_matches_serial(renderer, bundles, results):
    assert len(results) == len(bundles)
    for (origins, directions), result in zip(bundles, results):
        serial = renderer.render_rays(origins, directions)
        assert np.array_equal(result.rgb, serial.rgb)
        assert np.array_equal(result.depth_t, serial.depth_t, equal_nan=True)
        assert np.array_equal(result.opacity, serial.opacity)
        assert result.stats == serial.stats


def _forks(metrics: MetricsRegistry) -> int:
    counter = metrics.counters.get("pool.forks")
    return counter.value if counter is not None else 0


class TestPoolParity:
    def test_bundle_outputs_bit_identical(self, fast_renderer, bundles,
                                          pool_results):
        assert len(pool_results) == len(bundles)
        for (origins, directions), result in zip(bundles, pool_results):
            serial = fast_renderer.render_rays(origins, directions)
            assert np.array_equal(result.rgb, serial.rgb)
            assert np.array_equal(result.depth_t, serial.depth_t,
                                  equal_nan=True)
            assert np.array_equal(result.opacity, serial.opacity)

    def test_bundle_stats_identical(self, fast_renderer, bundles,
                                    pool_results):
        for (origins, directions), result in zip(bundles, pool_results):
            serial = fast_renderer.render_rays(origins, directions)
            assert result.stats == serial.stats


class TestEveryFieldKind:
    # directvoxgo is ``fast_renderer``, covered by TestPoolParity.
    @pytest.mark.parametrize("algorithm", ["instant_ngp", "tensorf"])
    def test_bit_identical(self, algorithm, fast_config, bundles):
        renderer = build_renderer(algorithm, "lego", fast_config)
        pool = WorkerPool(2)
        try:
            results = render_bundles(pool, renderer, bundles)
        finally:
            pool.shutdown()
        _assert_matches_serial(renderer, bundles, results)

    def test_instant_ngp_has_hashed_levels(self, fast_config):
        # The parity case above covers the vertex -> slot lookup only if
        # the FAST-scale hash grid really hashes some of its levels.
        field = build_renderer("instant_ngp", "lego", fast_config).field
        assert any(not level.dense for level in field.levels)
        assert any(level.dense for level in field.levels)


class TestForkCount:
    def test_renderer_built_after_fork_costs_one_refork(
            self, fast_renderer, fast_config, bundles):
        from repro.nerf import NeRFRenderer, UniformSampler
        metrics = MetricsRegistry()
        pool = WorkerPool(2)
        try:
            with activate(Observation(metrics=metrics)):
                render_bundles(pool, fast_renderer, bundles[:1])
                assert _forks(metrics) == 1
                # Built after the workers forked: they cannot hold it.
                late = NeRFRenderer(
                    fast_renderer.field,
                    UniformSampler(fast_config.samples_per_ray // 2,
                                   occupancy=fast_renderer.sampler.occupancy))
                late_results = render_bundles(pool, late, bundles)
                assert _forks(metrics) == 2
                # The re-fork's snapshot holds both renderers.
                again = render_bundles(pool, fast_renderer, bundles)
                assert _forks(metrics) == 2
        finally:
            pool.shutdown()
        _assert_matches_serial(late, bundles, late_results)
        _assert_matches_serial(fast_renderer, bundles, again)

    def test_second_engine_run_forks_zero_times(self):
        def run():
            sessions = build_mixed_sessions("vr-lego:2,dolly-chair", FAST,
                                            frames=3, seed=11)
            return MultiSessionEngine(sessions, backend="parallel",
                                      engine_workers=2).run()

        shutdown_pool()  # start from a pool that has not forked
        first, second = MetricsRegistry(), MetricsRegistry()
        try:
            with activate(Observation(metrics=first)):
                first_result = run()
            with activate(Observation(metrics=second)):
                second_result = run()
        finally:
            shutdown_pool()
        assert _forks(first) == 1
        assert _forks(second) == 0
        assert second.counters["pool.dispatches"].value > 0
        assert first_result.total_frames == second_result.total_frames
