"""Boundary conditions of admission and autoscaling.

The exact edges the integration suite never pins down: a cooldown
expiring *exactly* on a decision tick, scale-up saturating at
``max_workers`` (with booting capacity counted), and scale-down never
touching a worker that still holds resident sessions.
"""

import pytest

from repro.cluster import AdmissionController, Autoscaler


class StubWorker:
    def __init__(self, worker_id, load=0, busy_until_s=0.0,
                 started_s=0.0, index=0):
        self.worker_id = worker_id
        self.load = load
        self.busy_until_s = busy_until_s
        self.started_s = started_s
        self.index = index
        self.retired_s = None

    def retire(self, now_s):
        self.retired_s = now_s


def fleet(*loads):
    return [StubWorker(f"w{i:02d}", load=load, index=i)
            for i, load in enumerate(loads)]


def overloaded_scaler(**kwargs):
    defaults = dict(min_workers=1, max_workers=8, up_load=2.0,
                    cooldown_s=1.0)
    defaults.update(kwargs)
    return Autoscaler(**defaults)


class TestCooldownBoundary:
    def test_cooldown_expiring_exactly_on_tick_acts(self):
        scaler = overloaded_scaler(cooldown_s=1.0)
        assert scaler.evaluate(0.0, fleet(5), 0) is not None  # first up
        # Strictly inside the cooldown: suppressed.
        assert scaler.evaluate(0.999999, fleet(5), 0) is None
        # Exactly at expiry: the decision tick is allowed again.
        decision = scaler.evaluate(1.0, fleet(5), 0)
        assert decision is not None and decision[0] == "up"

    def test_zero_cooldown_acts_every_tick(self):
        scaler = overloaded_scaler(cooldown_s=0.0)
        assert scaler.evaluate(0.0, fleet(5), 0) is not None
        assert scaler.evaluate(0.0, fleet(5), 1) is not None


class TestScaleUpCap:
    def test_scale_up_capped_at_max_workers(self):
        scaler = overloaded_scaler(max_workers=3)
        workers = fleet(9, 9, 9)  # far over up_load
        assert scaler.evaluate(0.0, workers, 0) is None

    def test_booting_capacity_counts_toward_cap(self):
        scaler = overloaded_scaler(max_workers=3, cooldown_s=0.0)
        workers = fleet(9, 9)
        assert scaler.evaluate(0.0, workers, 1) is None  # 2 live + 1 boot
        decision = scaler.evaluate(0.0, workers, 0)
        assert decision is not None and decision[0] == "up"

    def test_last_slot_reachable(self):
        scaler = overloaded_scaler(max_workers=3, cooldown_s=0.0)
        decision = scaler.evaluate(0.0, fleet(9, 9), 0)
        assert decision == ("up", pytest.approx(
            scaler.scale_up_latency_s))


class TestScaleDownResidents:
    def test_never_removes_worker_with_residents(self):
        scaler = overloaded_scaler(cooldown_s=0.0)
        # Mean load 0.2 < DOWN_LOAD 0.25, but one worker holds a session:
        # the retire candidate must be one of the empty ones.
        workers = fleet(1, 0, 0, 0, 0)
        decision = scaler.evaluate(0.0, workers, 0)
        assert decision is not None and decision[0] == "down"
        assert decision[1].load == 0  # the loaded worker is untouchable

    def test_mid_frame_workers_are_not_retired(self):
        scaler = overloaded_scaler(cooldown_s=0.0, min_workers=1)
        mid_frame = fleet(0, 0)
        for worker in mid_frame:
            worker.busy_until_s = 5.0  # still serving a frame
        assert scaler.evaluate(0.0, mid_frame, 0) is None

    def test_worker_retire_refuses_residents(self):
        from repro.harness.configs import FAST
        from repro.cluster import Worker
        from repro.workloads import get_workload
        worker = Worker("w00", FAST)
        spec = get_workload("vr-lego").with_overrides(frames=2)
        worker.admit("s0", spec, 0.0)
        with pytest.raises(RuntimeError, match="resident"):
            worker.retire(1.0)

    def test_scale_down_respects_min_workers(self):
        scaler = overloaded_scaler(cooldown_s=0.0, min_workers=2)
        assert scaler.evaluate(0.0, fleet(0, 0), 0) is None


class TestAdmissionEdge:
    def test_exactly_at_queue_limit_rejects(self):
        controller = AdmissionController(queue_limit=3)
        eligible, reason = controller.eligible(fleet(3, 3))
        assert eligible == [] and reason == "queue_full"
        eligible, reason = controller.eligible(fleet(3, 2))
        assert [w.load for w in eligible] == [2] and reason is None
