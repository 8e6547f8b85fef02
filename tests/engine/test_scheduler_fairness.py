"""Property-style fairness tests for scheduling under tight ray budgets.

With a per-round ray budget smaller than the fleet's demand, only a
prefix of the scheduler's ordering renders each round — exactly where an
unfair policy would starve someone.  These tests instrument real engine
runs (scripted fake pipelines, so hundreds of property cases stay fast)
and assert the two contracts: round-robin never starves a session, and
deadline scheduling catches a lagging session up instead of widening the
gap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparw.pipeline import RayRequest, TargetFrameRecord
from repro.engine import (
    DeadlineScheduler,
    MultiSessionEngine,
    RenderSession,
    RoundRobinScheduler,
)


class FakeSampler:
    num_samples = 8


class FakeRenderer:
    def __init__(self):
        self.sampler = FakeSampler()
        self.field = ("field", 0)
        self.chunk_size = 1024

    def render_ray_batch(self, bundles):
        return [f"out-{origins.shape[0]}" for origins, _ in bundles]


class FakePipeline:
    def __init__(self, renderer, num_frames, rays_per_frame):
        self.renderer = renderer
        self.num_frames = num_frames
        self.rays_per_frame = rays_per_frame

    def step(self, poses):
        for i in range(self.num_frames):
            rays = np.zeros((self.rays_per_frame, 3))
            out = yield RayRequest(kind="sparse", frame_index=i,
                                   origins=rays, directions=rays)
            yield TargetFrameRecord(
                frame_index=i, frame=out, classification=None, overlap=1.0,
                new_reference=False, sparse_stats=None,
                reference_stats=None, warp_points=0,
                mean_warp_angle_deg=0.0)


def make_session(sid, renderer, frames, rays=4, fps=30.0):
    return RenderSession(sid, FakePipeline(renderer, frames, rays),
                         poses=[None] * frames, fps_target=fps)


class RecordingScheduler:
    """Wraps a scheduler; snapshots per-session progress every round."""

    def __init__(self, inner, all_sessions):
        self.inner = inner
        self.all_sessions = all_sessions
        self.snapshots = []  # per-round {session_id: frames_completed}
        self.orders = []  # per-round ordering of active session ids

    def order(self, sessions, round_index):
        ordered = self.inner.order(sessions, round_index)
        self.snapshots.append({s.session_id: s.frames_completed
                               for s in self.all_sessions})
        self.orders.append([s.session_id for s in ordered])
        return ordered


def run_recorded(sessions, scheduler, ray_budget):
    recorder = RecordingScheduler(scheduler, sessions)
    result = MultiSessionEngine(sessions, scheduler=recorder,
                                ray_budget=ray_budget).run()
    return result, recorder


class TestRoundRobinNeverStarves:
    @settings(max_examples=40, deadline=None)
    @given(num_sessions=st.integers(2, 8), frames=st.integers(1, 6),
           served_per_round=st.integers(1, 3))
    def test_progress_spread_stays_bounded(self, num_sessions, frames,
                                           served_per_round):
        """Under any tight budget, no session ever falls more than the
        per-round service width behind any other, and everyone finishes."""
        rays = 4
        renderer = FakeRenderer()
        sessions = [make_session(f"s{i}", renderer, frames, rays=rays)
                    for i in range(num_sessions)]
        # Budget admits exactly `served_per_round` requests per round.
        result, recorder = run_recorded(sessions, RoundRobinScheduler(),
                                        ray_budget=rays * served_per_round)
        assert all(s.done for s in sessions)
        assert result.total_frames == num_sessions * frames
        for snapshot in recorder.snapshots:
            progress = list(snapshot.values())
            assert max(progress) - min(progress) <= served_per_round

    @settings(max_examples=25, deadline=None)
    @given(num_sessions=st.integers(2, 6), frames=st.integers(2, 5))
    def test_service_gap_is_bounded(self, num_sessions, frames):
        """Every unfinished session is served at least once in any window
        of `2 * num_sessions` consecutive rounds — the starvation bound.
        (Rotation is over the *shrinking* active list, so the gap can
        exceed one full lap of the fleet, but never two.)"""
        rays = 4
        renderer = FakeRenderer()
        sessions = [make_session(f"s{i}", renderer, frames, rays=rays)
                    for i in range(num_sessions)]
        _, recorder = run_recorded(sessions, RoundRobinScheduler(),
                                   ray_budget=rays)  # one session per round
        served_per_round = [order[0] for order in recorder.orders]
        last_served = {f"s{i}": -1 for i in range(num_sessions)}
        for round_index, sid in enumerate(served_per_round):
            for other, last in last_served.items():
                if other in recorder.orders[round_index]:  # still active
                    assert round_index - last <= 2 * num_sessions, (
                        f"{other} unserved for {round_index - last} rounds")
            last_served[sid] = round_index


class TestDeadlineCatchesUp:
    def test_lagging_session_served_until_caught_up(self):
        """A session three frames behind is served exclusively until it
        rejoins the pack, then progress stays level."""
        rays = 4
        lag = 3
        renderer = FakeRenderer()
        ahead_a = make_session("ahead-a", renderer, frames=6, rays=rays)
        ahead_b = make_session("ahead-b", renderer, frames=6, rays=rays)
        behind = make_session("behind", renderer, frames=6, rays=rays)
        for _ in range(lag):  # pre-advance two sessions outside the engine
            ahead_a.deliver("warm")
            ahead_b.deliver("warm")
        _, recorder = run_recorded([ahead_a, ahead_b, behind],
                                   DeadlineScheduler(), ray_budget=rays)
        served = [order[0] for order in recorder.orders]
        # The first `lag` rounds all go to the lagging session...
        assert served[:lag] == ["behind"] * lag
        # ...after which nobody drifts more than one frame apart again.
        for snapshot in recorder.snapshots[lag:]:
            progress = list(snapshot.values())
            assert max(progress) - min(progress) <= 1
        assert all(s.done for s in (ahead_a, ahead_b, behind))

    @settings(max_examples=25, deadline=None)
    @given(num_sessions=st.integers(2, 6), frames=st.integers(2, 6),
           lag=st.integers(1, 4))
    def test_catch_up_property(self, num_sessions, frames, lag):
        """However far one session starts behind, deadline scheduling
        serves it first until the spread collapses to <= 1 and never lets
        it grow past the initial lag."""
        rays = 4
        renderer = FakeRenderer()
        sessions = [make_session(f"s{i}", renderer, frames + lag,
                                 rays=rays)
                    for i in range(num_sessions)]
        for session in sessions[:-1]:
            for _ in range(lag):
                session.deliver("warm")
        _, recorder = run_recorded(sessions, DeadlineScheduler(),
                                   ray_budget=rays)
        spreads = [max(s.values()) - min(s.values())
                   for s in recorder.snapshots]
        assert all(s.done for s in sessions)
        assert max(spreads) <= lag  # the gap never widens
        caught_up = next(i for i, s in enumerate(spreads) if s <= 1)
        # Once caught up, the pack stays level.
        assert all(s <= 1 for s in spreads[caught_up:])
