"""Engine-layer governor integration: mid-stream tier switches that work.

Runs the real batched engine with the governor attached and checks the
closed loop end to end: overload degrades sessions mid-stream (and the
degraded frames really are smaller), the tier floor holds, static mode
pins, and an ungoverned engine is untouched.
"""

import dataclasses

import pytest

from instruments import level_of
from repro.control import EngineGovernor
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.hw.serving import aggregate_serving
from repro.hw.soc import SoCModel
from repro.workloads import build_mixed_sessions, get_workload

FRAMES = 8


def overloaded_mix(count=3, **spec_changes):
    """Sessions whose open-loop request rate no SoC can keep up with."""
    spec = dataclasses.replace(get_workload("vr-lego"),
                               fps_target=100000.0, **spec_changes)
    return [(spec, count)]


def run_governed(mix, mode="adaptive", **governor_kwargs):
    sessions = build_mixed_sessions(mix, FAST, frames=FRAMES)
    governor = EngineGovernor(FAST, mode=mode, **governor_kwargs)
    result = MultiSessionEngine(sessions, ray_budget=4096,
                                governor=governor).run()
    return sessions, governor, result


class TestAdaptiveEngine:
    def test_overload_degrades_mid_stream(self):
        sessions, governor, result = run_governed(
            overloaded_mix())
        assert governor.events  # tier transitions happened
        assert all(s.done and s.frames_completed == FRAMES
                   for s in sessions)
        assert any(s.quality_level > 0 for s in sessions)

    def test_degraded_frames_shrink(self):
        sessions, _, _ = run_governed(overloaded_mix(count=2))
        frames = sessions[0].result.frames
        first, last = frames[0].image.shape[0], frames[-1].image.shape[0]
        assert first == FAST.image_size  # starts native
        assert last < first              # ends degraded

    def test_floor_respected_under_overload(self):
        sessions, governor, _ = run_governed(
            overloaded_mix(min_quality_tier="reduced"))
        assert all(s.quality_level <= 1 for s in sessions)
        assert all(c.level <= c.max_level
                   for c in governor.governor.sessions.values())

    def test_light_load_never_degrades(self):
        # Native 30 fps pacing leaves plenty of headroom at FAST scale.
        sessions, governor, _ = run_governed([(get_workload("vr-lego"), 2)])
        assert not governor.events
        assert all(s.quality_level == 0 for s in sessions)

    def test_deterministic(self):
        def digest():
            sessions, governor, result = run_governed(
                overloaded_mix())
            return ([s.quality_level for s in sessions],
                    governor.events, result.batch.total_rays)
        assert digest() == digest()


class TestSwitchesLand:
    def test_reported_levels_and_transitions_are_the_landed_ones(self):
        # These sessions degrade after their first two frames, then earn
        # a recovery on their last one.  A switch staged after a session's
        # last frame never lands, so the governor must not count it, nor
        # move its own level for it.
        spec = dataclasses.replace(get_workload("vr-lego"),
                                   fps_target=2000.0, slo_fps=4000.0)
        sessions = build_mixed_sessions([(spec, 3)], FAST, frames=FRAMES)
        # A staged pipeline starts stepping exactly when its switch lands.
        landed = []
        for session in sessions:
            stage = session.retune

            def spy(sparw, *args, _stage=stage):
                step = sparw.step

                def landing(*step_args):
                    landed.append(1)
                    return step(*step_args)
                sparw.step = landing
                _stage(sparw, *args)
            session.retune = spy
        governor = EngineGovernor(FAST, mode="adaptive")
        MultiSessionEngine(sessions, ray_budget=4096,
                           governor=governor).run()
        summary = governor.summary()
        assert landed
        assert summary["tier_transitions"] == len(landed)
        assert all(s.quality_level == level_of(governor.governor, s.session_id)
                   for s in sessions)
        assert summary["mean_final_level"] == (
            sum(s.quality_level for s in sessions) / len(sessions))

    def test_no_switch_is_staged_while_the_last_frame_is_in_flight(self):
        # Overloaded from the first frame, but only three frames long: the
        # SLO miss is seen while each session's last frame is pending, so
        # no switch could land and none may be counted.
        sessions = build_mixed_sessions(overloaded_mix(), FAST, frames=3)
        governor = EngineGovernor(FAST, mode="adaptive")
        MultiSessionEngine(sessions, ray_budget=4096,
                           governor=governor).run()
        assert governor.events == []
        assert governor.summary()["tier_transitions"] == 0
        assert all(s.quality_level == level_of(governor.governor, s.session_id)
                   for s in sessions)


class TestLateArrival:
    def test_late_session_is_not_charged_for_the_earlier_clock(self):
        # The queue is shared for the server's whole life: a session
        # attached after it advanced requests its frames from then on.
        first, second = build_mixed_sessions("vr-lego:2", FAST, frames=6)
        governor = EngineGovernor(FAST, mode="adaptive")
        engine = MultiSessionEngine([], governor=governor)
        with engine.serving():
            engine.admit(first)
            while not first.done:
                engine.run_round()
            attached_s = governor.queue.busy_until_s
            assert attached_s > 4 * second.workload.slo_latency_s
            engine.admit(second)
            while not second.done:
                engine.run_round()
        timelines = governor.streams[second.session_id].timelines
        assert timelines[0].request_s == attached_s
        assert len(timelines) == 6
        assert all(t.latency_s < second.workload.slo_latency_s
                   for t in timelines)
        assert governor.governor.sessions[second.session_id].level == 0
        assert not governor.events

    def test_a_retired_session_holds_no_frame_back(self):
        # A session retired mid-serve renders no more frames; the queue
        # must not wait for them before placing its peers' frames.
        first, second = build_mixed_sessions("vr-lego:2", FAST, frames=6)
        governor = EngineGovernor(FAST, mode="adaptive")
        engine = MultiSessionEngine([], governor=governor)
        with engine.serving():
            engine.admit(first)
            engine.admit(second)
            while first.frames_completed < 2:
                engine.run_round()
            engine.retire(first.session_id)
            while not second.done:
                engine.run_round()
        assert governor.queue.streams == []
        assert len(second.result.records) == 6


class TestObservesTheReportedLatency:
    """The governor observes each frame at the latency the ``serve``
    report gives the same frame: both read one SoC queue."""

    @staticmethod
    def spy(governor):
        seen = {}
        observe = governor.governor.observe

        def recording(session_id, latency_s):
            seen.setdefault(session_id, []).append(latency_s)
            return observe(session_id, latency_s)
        governor.governor.observe = recording
        return seen

    @staticmethod
    def check(governor, seen, report):
        assert seen
        for stats in report.per_session:
            sid = stats.session_id
            assert governor.streams[sid].timelines == stats.timelines
            observed = seen.get(sid, [])
            assert observed == [t.latency_s for t in stats.timelines][
                :len(observed)]

    @pytest.mark.parametrize("scheduler", ["round_robin", "deadline"])
    def test_seed_7_governed_mix(self, monkeypatch, scheduler):
        from repro.harness import runner
        from repro.harness.runconfig import RunConfig
        governors, reports, seen = [], [], []

        class SpyGovernor(runner.EngineGovernor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                governors.append(self)
                seen.append(TestObservesTheReportedLatency.spy(self))

        def spy_aggregate(*args, **kwargs):
            reports.append(aggregate(*args, **kwargs))
            return reports[-1]

        aggregate = runner.aggregate_serving
        monkeypatch.setattr(runner, "EngineGovernor", SpyGovernor)
        monkeypatch.setattr(runner, "aggregate_serving", spy_aggregate)
        runner.execute_cell(RunConfig(
            mode="serve", workloads="vr-lego:4,dolly-chair:2,orbit-ngp:2",
            frames=8, governor="adaptive", seed=7,
            scheduler=scheduler).validate(), config=FAST)
        (governor,), (report,), (observed,) = governors, reports, seen
        self.check(governor, observed, report)
        # The parent's private clock read 0 ms for most of these frames.
        assert sum(len(v) for v in observed.values()) == 42
        assert all(latency > 0.0 for v in observed.values() for latency in v)

    def test_overloaded_mix(self):
        sessions = build_mixed_sessions(overloaded_mix(), FAST,
                                        frames=FRAMES)
        governor = EngineGovernor(FAST, mode="adaptive")
        observed = self.spy(governor)
        MultiSessionEngine(sessions, ray_budget=4096,
                           governor=governor).run()
        report = aggregate_serving(
            {s.session_id: s.result for s in sessions},
            soc=SoCModel(feature_dim=FAST.feature_dim),
            variants={s.session_id: s.workload.variant for s in sessions},
            fps_targets={s.session_id: s.fps_target for s in sessions})
        self.check(governor, observed, report)
        assert governor.events


class TestStaticEngine:
    def test_serve_static_degrades_from_frame_zero(self):
        # The harness builds static sessions already pinned, so even the
        # first frame renders at the min_quality_tier rung (an attach-time
        # retune could only land from frame one onward).
        from repro.harness.runconfig import RunConfig
        from repro.harness.runner import execute_cell
        result = execute_cell(RunConfig(mode="serve", workloads="vr-lego:1",
                                        frames=2, governor="static"),
                              config=FAST)
        assert result.rows[0]["quality_level"] == 2
        # Born pinned, no retunes.
        assert result.summary["tier_transitions"] == 0

    def test_static_pins_min_tier(self):
        sessions, governor, _ = run_governed([(get_workload("vr-lego"), 2)],
                                             mode="static")
        assert all(s.quality_level == s.workload.max_quality_level
                   for s in sessions)
        assert governor.summary()["governor"] == "static"

    def test_static_respects_full_pin(self):
        pinned = dataclasses.replace(get_workload("vr-lego"),
                                     min_quality_tier="full")
        sessions, _, _ = run_governed([(pinned, 2)], mode="static")
        assert all(s.quality_level == 0 for s in sessions)


class TestUngovernedUnchanged:
    def test_plain_engine_has_no_governor_surface(self):
        sessions = build_mixed_sessions("vr-lego:2", FAST, frames=3)
        result = MultiSessionEngine(sessions).run()
        assert all(s.quality_level == 0 for s in sessions)
        assert result.total_frames == 6

    def test_weighted_budget_requires_governor(self):
        # Without a governor the budget path is the historical prefix
        # selection; summing a weighted split there would be a bug.
        sessions = build_mixed_sessions("vr-lego:2", FAST, frames=3)
        engine = MultiSessionEngine(sessions, ray_budget=1)
        result = engine.run()  # undersized budget still completes
        assert result.total_frames == 6

    def test_governed_run_completes_under_tiny_budget(self):
        sessions, _, result = run_governed(overloaded_mix(count=2))
        assert result.total_frames == 2 * FRAMES

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="governor mode"):
            EngineGovernor(FAST, mode="banana")
