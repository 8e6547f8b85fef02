"""Unit tests for placement policies, admission control, and autoscaling.

Policies and the admission controller are duck-typed over workers, so
these tests drive them with a minimal stand-in instead of real SoC
workers — the full integration runs in test_simulator.py.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import (
    REJECT_NO_WORKERS,
    REJECT_QUEUE_FULL,
    AdmissionController,
    Autoscaler,
    make_placement,
)
from repro.cluster.placement import rendezvous_score


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


class TestPlacementPolicies:
    def test_round_robin_cycles(self):
        policy = make_placement("round_robin")
        workers = fleet(0, 0, 0)
        picks = [policy.choose(None, workers).worker_id for _ in range(5)]
        assert picks == ["w00", "w01", "w02", "w00", "w01"]

    def test_least_loaded_picks_min_tie_by_id(self):
        policy = make_placement("least_loaded")
        assert policy.choose(None, fleet(2, 1, 1)).worker_id == "w01"
        assert policy.choose(None, fleet(3, 3, 3)).worker_id == "w00"

    def test_cache_affinity_is_sticky(self):
        policy = make_placement("cache_affinity")
        workers = fleet(0, 0, 0, 0)
        first = policy.choose("spec-abc/cfg-1", workers).worker_id
        for _ in range(5):
            assert policy.choose("spec-abc/cfg-1", workers).worker_id \
                == first

    def test_cache_affinity_spreads_distinct_keys(self):
        policy = make_placement("cache_affinity")
        workers = fleet(0, 0, 0, 0)
        picks = {policy.choose(f"key-{i}", workers).worker_id
                 for i in range(16)}
        assert len(picks) > 1

    def test_cache_affinity_deterministic_fallback(self):
        """When the preferred worker leaves the eligible set, every
        placement agrees on the same second choice."""
        policy = make_placement("cache_affinity")
        workers = fleet(0, 0, 0)
        preferred = policy.choose("key", workers)
        remaining = [w for w in workers if w is not preferred]
        fallback = policy.choose("key", remaining).worker_id
        assert fallback != preferred.worker_id
        assert policy.choose("key", remaining).worker_id == fallback

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_placement("random")

    def test_shard_affinity_prefers_holders_at_equal_load(self):
        policy = make_placement("shard_affinity")
        policy.store = SimpleNamespace(holders=lambda key: {"w02"})
        assert policy.choose("key", fleet(1, 1, 1)).worker_id == "w02"

    def test_shard_affinity_load_beats_residency(self):
        policy = make_placement("shard_affinity")
        policy.store = SimpleNamespace(holders=lambda key: {"w02"})
        assert policy.choose("key", fleet(1, 0, 1)).worker_id == "w01"

    def test_shard_affinity_without_store_is_rendezvous(self):
        workers = fleet(0, 3, 1, 2)
        for key in ("key-a", "key-b", "key-c"):
            assert (make_placement("shard_affinity").choose(key, workers)
                    is make_placement("cache_affinity").choose(key, workers))
        assert max(workers, key=lambda w: rendezvous_score("key-a",
                                                           w.worker_id)) \
            is make_placement("cache_affinity").choose("key-a", workers)


class TestAdmission:
    def test_no_workers(self):
        controller = AdmissionController(queue_limit=2)
        eligible, reason = controller.eligible([])
        assert eligible == [] and reason == REJECT_NO_WORKERS

    def test_queue_full(self):
        controller = AdmissionController(queue_limit=2)
        eligible, reason = controller.eligible(fleet(2, 2))
        assert eligible == [] and reason == REJECT_QUEUE_FULL

    def test_filters_full_workers(self):
        controller = AdmissionController(queue_limit=2)
        workers = fleet(2, 1, 0)
        eligible, reason = controller.eligible(workers)
        assert reason is None
        assert [w.worker_id for w in eligible] == ["w01", "w02"]

    def test_counters(self):
        controller = AdmissionController(queue_limit=1)
        controller.record_admit()
        controller.record_reject(REJECT_QUEUE_FULL)
        controller.record_reject(REJECT_QUEUE_FULL)
        controller.record_reject(REJECT_NO_WORKERS)
        stats = controller.stats
        assert stats.admitted == 1
        assert stats.rejected == 3
        assert stats.rejected_by_reason == {REJECT_QUEUE_FULL: 2,
                                            REJECT_NO_WORKERS: 1}
        assert stats.reject_rate == pytest.approx(0.75)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=0)


class TestAutoscaler:
    def test_scales_up_over_threshold(self):
        scaler = Autoscaler(max_workers=4, up_load=2.0,
                            scale_up_latency_s=0.5, cooldown_s=0.0)
        decision = scaler.evaluate(1.0, fleet(3, 3), booting=0)
        assert decision == ("up", 1.5)
        assert scaler.events[-1].action == "up_requested"

    def test_booting_capacity_suppresses_up(self):
        scaler = Autoscaler(max_workers=4, up_load=2.0, cooldown_s=0.0)
        # 6 resident / (2 live + 1 booting) = 2.0, not > threshold.
        assert scaler.evaluate(1.0, fleet(3, 3), booting=1) is None

    def test_respects_max_workers(self):
        scaler = Autoscaler(max_workers=2, up_load=1.0, cooldown_s=0.0)
        assert scaler.evaluate(1.0, fleet(5, 5), booting=0) is None

    def test_scales_down_idle_worker(self):
        scaler = Autoscaler(min_workers=1, up_load=2.0, down_load=0.5,
                            cooldown_s=0.0)
        workers = fleet(0, 0)
        decision = scaler.evaluate(1.0, workers, booting=0)
        # Retires the youngest idle worker (LIFO).
        assert decision == ("down", workers[1])

    def test_scale_down_is_lifo_by_spawn_order_not_id_string(self):
        # Spawn indices past 99 would reverse under lexicographic id
        # comparison ("w100" < "w99"); LIFO must follow spawn order.
        scaler = Autoscaler(min_workers=1, up_load=2.0, down_load=0.5,
                            cooldown_s=0.0)
        old = StubWorker("w99", started_s=0.0, index=99)
        young = StubWorker("w100", started_s=5.0, index=100)
        decision = scaler.evaluate(10.0, [old, young], booting=0)
        assert decision == ("down", young)

    def test_never_below_min_workers(self):
        scaler = Autoscaler(min_workers=1, down_load=0.5, cooldown_s=0.0)
        assert scaler.evaluate(1.0, fleet(0), booting=0) is None

    def test_cooldown_spaces_actions(self):
        scaler = Autoscaler(max_workers=8, up_load=1.0, cooldown_s=5.0)
        assert scaler.evaluate(0.0, fleet(9, 9), booting=0) is not None
        assert scaler.evaluate(1.0, fleet(9, 9), booting=0) is None
        assert scaler.evaluate(6.0, fleet(9, 9), booting=0) is not None

    def test_hysteresis_required(self):
        with pytest.raises(ValueError):
            Autoscaler(up_load=1.0, down_load=1.0)
