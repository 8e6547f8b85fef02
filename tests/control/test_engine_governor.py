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


class TestLateArrival:
    def test_late_session_is_not_charged_for_the_earlier_clock(self):
        # The clock is shared for the server's whole life: a session
        # attached after it advanced requests its frames from then on.
        sessions = build_mixed_sessions("vr-lego:2", FAST, frames=3)
        MultiSessionEngine(sessions).run()  # ungoverned: records to replay
        first, second = sessions
        governor = EngineGovernor(FAST, mode="adaptive")
        governor.attach([first])
        record = first.result.records[-1]
        k = 0
        while governor.clock_s < 4 * second.workload.slo_latency_s:
            governor.observe_record(
                first, dataclasses.replace(record, frame_index=k))
            k += 1
        governor.attach([second])
        for record in second.result.records:
            governor.observe_record(second, record)
        assert governor.governor.sessions[second.session_id].level == 0
        assert not governor.events


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
