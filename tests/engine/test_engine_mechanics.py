"""Unit tests for sessions, schedulers, and engine batching mechanics.

Uses a scripted fake pipeline so these run in microseconds — the real
NeRF-backed parity checks live in test_engine_parity.py.
"""

import numpy as np
import pytest

from repro.core.sparw.pipeline import RayRequest, TargetFrameRecord
from repro.engine import (
    DeadlineScheduler,
    MultiSessionEngine,
    RenderSession,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.engine.engine import batch_key


class FakeSampler:
    num_samples = 8


class FakeRenderer:
    """Counts batched calls; echoes one output per bundle."""

    def __init__(self, field_id=0):
        self.sampler = FakeSampler()
        self.field = ("field", field_id)
        self.chunk_size = 1024
        self.batch_calls = []

    def render_ray_batch(self, bundles):
        self.batch_calls.append([o.shape[0] for o, _ in bundles])
        return [f"out-{o.shape[0]}" for o, _ in bundles]


class FakePipeline:
    """Emits `rays_per_frame` single-request frames through step()."""

    def __init__(self, renderer, num_frames, rays_per_frame=4):
        self.renderer = renderer
        self.num_frames = num_frames
        self.rays_per_frame = rays_per_frame

    def step(self, poses, start=0):
        for i in range(self.num_frames):
            rays = np.zeros((self.rays_per_frame, 3))
            out = yield RayRequest(kind="sparse", frame_index=i,
                                   origins=rays, directions=rays)
            yield TargetFrameRecord(
                frame_index=i, frame=out, classification=None, overlap=1.0,
                new_reference=False, sparse_stats=None, reference_stats=None,
                warp_points=0, mean_warp_angle_deg=0.0)


def make_session(sid, renderer, frames=2, rays=4, fps=30.0):
    return RenderSession(sid, FakePipeline(renderer, frames, rays),
                         poses=[None] * frames, fps_target=fps)


class TestSession:
    def test_pending_and_deliver(self):
        session = make_session("a", FakeRenderer(), frames=2)
        assert not session.done
        assert session.pending_request.kind == "sparse"
        session.deliver("first")
        assert session.frames_completed == 1
        assert session.result.records[0].frame == "first"
        session.deliver("second")
        assert session.done
        assert session.pending_request is None

    def test_deliver_without_pending_raises(self):
        session = make_session("a", FakeRenderer(), frames=1)
        session.deliver("only")
        with pytest.raises(RuntimeError):
            session.deliver("extra")

    def test_empty_trajectory_is_done(self):
        session = RenderSession("e", FakePipeline(FakeRenderer(), 0), [])
        assert session.done

    def test_deadline_advances_with_progress(self):
        session = make_session("a", FakeRenderer(), frames=2, fps=10.0)
        assert session.next_deadline == 0.0
        session.deliver("f0")
        assert session.next_deadline == pytest.approx(0.1)

    def test_invalid_fps_rejected(self):
        with pytest.raises(ValueError):
            make_session("a", FakeRenderer(), fps=0.0)


class TestSchedulers:
    def test_round_robin_rotates(self):
        sessions = ["a", "b", "c"]
        sched = RoundRobinScheduler()
        assert sched.order(sessions, 0) == ["a", "b", "c"]
        assert sched.order(sessions, 1) == ["b", "c", "a"]
        assert sched.order(sessions, 4) == ["b", "c", "a"]

    def test_deadline_orders_most_behind_first(self):
        renderer = FakeRenderer()
        fast = make_session("fast", renderer, frames=3, fps=90.0)
        slow = make_session("slow", renderer, frames=3, fps=30.0)
        fast.deliver("f0")
        slow.deliver("f0")
        # fast owes its next frame sooner (1/90 < 1/30).
        order = DeadlineScheduler().order([slow, fast], 0)
        assert [s.session_id for s in order] == ["fast", "slow"]

    def test_make_scheduler(self):
        assert isinstance(make_scheduler("round_robin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("deadline"), DeadlineScheduler)
        with pytest.raises(ValueError):
            make_scheduler("fifo")


class TestEngineBatching:
    def test_shared_renderer_batches_into_one_call(self):
        renderer = FakeRenderer()
        sessions = [make_session(f"s{i}", renderer, frames=2, rays=3)
                    for i in range(4)]
        result = MultiSessionEngine(sessions).run()
        assert all(s.done for s in sessions)
        # 2 frames x 4 sessions, one batched call per round.
        assert result.batch.rounds == 2
        assert result.batch.nerf_calls == 2
        assert result.batch.requests == 8
        assert result.batch.requests_per_call == pytest.approx(4.0)
        assert result.batch.max_batch_rays == 12

    def test_distinct_fields_do_not_share_calls(self):
        a, b = FakeRenderer(field_id=1), FakeRenderer(field_id=2)
        sessions = [make_session("a", a, frames=1),
                    make_session("b", b, frames=1)]
        result = MultiSessionEngine(sessions).run()
        assert result.batch.nerf_calls == 2
        assert len(a.batch_calls) == 1 and len(b.batch_calls) == 1

    def test_deterministic_sampler_key_is_stable(self):
        renderer = FakeRenderer()
        assert batch_key(renderer) == batch_key(renderer)

    def test_ray_budget_limits_round_but_serves_everyone(self):
        renderer = FakeRenderer()
        sessions = [make_session(f"s{i}", renderer, frames=1, rays=10)
                    for i in range(3)]
        result = MultiSessionEngine(sessions, ray_budget=10).run()
        assert all(s.done for s in sessions)
        # One session per round under the 10-ray budget.
        assert result.batch.rounds == 3
        assert result.batch.max_batch_rays == 10

    def test_budget_always_serves_at_least_one(self):
        renderer = FakeRenderer()
        sessions = [make_session("big", renderer, frames=1, rays=50)]
        result = MultiSessionEngine(sessions, ray_budget=1).run()
        assert sessions[0].done
        assert result.batch.total_rays == 50

    def test_duplicate_ids_rejected(self):
        renderer = FakeRenderer()
        with pytest.raises(ValueError):
            MultiSessionEngine([make_session("x", renderer),
                                make_session("x", renderer)])

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            MultiSessionEngine([], ray_budget=0)

    def test_unknown_backend_rejected(self):
        # Must fail at construction: serving() runs on the frame server's
        # engine-host thread, which has no exception path.
        with pytest.raises(ValueError, match="numpy.*parallel"):
            MultiSessionEngine([], backend="paralel")
