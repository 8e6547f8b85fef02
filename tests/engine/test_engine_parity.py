"""Regression: batched multi-session rendering == N single-user pipelines.

The engine's whole contract is that interleaving sessions and answering
their ray requests from shared vectorized field queries changes *nothing*
about what each session produces: frames, pixel classifications, and work
statistics must be identical to driving each session alone through
``SparwRenderer.render_sequence``.
"""

import numpy as np
import pytest

from instruments import session_of
from repro.core.sparw import SparwRenderer
from repro.engine import MultiSessionEngine, RenderSession, RoundRobinScheduler
from repro.harness.configs import make_camera
from repro.scenes import orbit_trajectory

START_ANGLES = (0.0, 40.0, 95.0)
NUM_POSES = 5
WINDOW = 4


@pytest.fixture(scope="module")
def trajectories(fast_config):
    return [orbit_trajectory(NUM_POSES, radius=fast_config.orbit_radius,
                             degrees_per_frame=1.0, start_angle_deg=angle)
            for angle in START_ANGLES]


@pytest.fixture(scope="module")
def solo_results(fast_renderer, fast_config, trajectories):
    camera = make_camera(fast_config)
    return [SparwRenderer(fast_renderer, camera,
                          window=WINDOW).render_sequence(t.poses)
            for t in trajectories]


@pytest.fixture(scope="module")
def engine_result(fast_renderer, fast_config, trajectories):
    camera = make_camera(fast_config)
    sessions = [
        RenderSession(f"s{i}",
                      SparwRenderer(fast_renderer, camera, window=WINDOW),
                      t.poses)
        for i, t in enumerate(trajectories)
    ]
    return MultiSessionEngine(sessions,
                              scheduler=RoundRobinScheduler()).run()


class TestParity:
    def test_all_sessions_complete(self, engine_result):
        assert all(s.done for s in engine_result.sessions)
        assert engine_result.total_frames == len(START_ANGLES) * NUM_POSES

    def test_frame_stats_identical(self, engine_result, solo_results):
        for i, solo in enumerate(solo_results):
            batched = session_of(engine_result, f"s{i}").result
            assert batched.num_frames == solo.num_frames
            for br, sr in zip(batched.records, solo.records):
                assert br.frame_index == sr.frame_index
                assert br.new_reference == sr.new_reference
                assert br.sparse_stats == sr.sparse_stats
                assert br.reference_stats == sr.reference_stats
                assert br.warp_points == sr.warp_points
                assert br.overlap == sr.overlap
                assert br.mean_warp_angle_deg == sr.mean_warp_angle_deg

    def test_classifications_identical(self, engine_result, solo_results):
        for i, solo in enumerate(solo_results):
            batched = session_of(engine_result, f"s{i}").result
            for br, sr in zip(batched.records, solo.records):
                assert np.array_equal(br.classification.warped,
                                      sr.classification.warped)
                assert np.array_equal(br.classification.disoccluded,
                                      sr.classification.disoccluded)
                assert np.array_equal(br.classification.void,
                                      sr.classification.void)

    def test_frames_identical(self, engine_result, solo_results):
        for i, solo in enumerate(solo_results):
            batched = session_of(engine_result, f"s{i}").result
            for bf, sf in zip(batched.frames, solo.frames):
                assert np.array_equal(bf.image, sf.image)
                assert np.array_equal(bf.depth, sf.depth)
                assert np.array_equal(bf.hit, sf.hit)

    def test_rays_were_actually_batched(self, engine_result):
        batch = engine_result.batch
        assert batch.nerf_calls < batch.requests
        assert batch.requests_per_call > 1.5
        # The biggest batch spans several sessions' full reference frames.
        assert batch.max_batch_rays > 2 * 48 * 48

    def test_deadline_scheduler_same_outputs(self, fast_renderer, fast_config,
                                             trajectories, solo_results):
        from repro.engine import DeadlineScheduler
        camera = make_camera(fast_config)
        sessions = [
            RenderSession(f"s{i}",
                          SparwRenderer(fast_renderer, camera, window=WINDOW),
                          t.poses)
            for i, t in enumerate(trajectories)
        ]
        result = MultiSessionEngine(sessions,
                                    scheduler=DeadlineScheduler()).run()
        for i, solo in enumerate(solo_results):
            batched = session_of(result, f"s{i}").result
            for br, sr in zip(batched.records, solo.records):
                assert br.sparse_stats == sr.sparse_stats
                assert np.array_equal(br.frame.image, sr.frame.image)
