"""Integration tests for the open-loop cluster simulator.

Runs the real pipeline (FAST scale, tiny frame counts) through the fleet:
determinism per seed, admission shedding, the cache-affinity placement
payoff, autoscaling, and the harness/CLI surface.
"""

import dataclasses
import json

import pytest

from repro.cluster import Autoscaler, simulate_cluster
from repro.harness.cli import main
from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig, RunConfigError
from repro.harness.runner import execute_cell

# Scene-skewed mix: 3 of 4 arrivals (in expectation) share the vr-lego
# cache key, the shape cache-affinity placement exploits.
SKEWED_MIX = "vr-lego:3,dolly-chair:1"


def run(mix=SKEWED_MIX, **overrides):
    kwargs = dict(arrivals="poisson", rate_hz=1.5, duration_s=5.0,
                  workers=3, placement="least_loaded", queue_limit=6,
                  frames=2, seed=0)
    kwargs.update(overrides)
    return simulate_cluster(mix, FAST, **kwargs)


def run_cluster(config, mix=None, **fields):
    """One cluster cell through the runner: (per-worker rows, summary)."""
    result = execute_cell(RunConfig(mode="cluster", workloads=mix, **fields),
                          config=config)
    return result.rows, result.summary


class TestDeterminism:
    def test_same_seed_identical_report(self):
        a = dataclasses.asdict(run(placement="cache_affinity"))
        b = dataclasses.asdict(run(placement="cache_affinity"))
        assert a == b

    def test_different_seed_different_schedule(self):
        a = run(seed=0)
        b = run(seed=3)
        assert (a.arrivals_total != b.arrivals_total
                or a.makespan_s != b.makespan_s)


class TestServiceAccounting:
    def test_conservation(self):
        report = run()
        assert report.arrivals_total == report.admitted + report.rejected
        assert report.completed_sessions == report.admitted
        assert report.total_frames == 2 * report.admitted
        assert sum(row["frames"] for row in report.per_worker) \
            == report.total_frames

    def test_latency_and_utilization_populated(self):
        report = run()
        assert report.admitted >= 1
        assert report.p99_latency_s >= report.p95_latency_s \
            >= report.p50_latency_s > 0.0
        assert report.worst_latency_s >= report.p99_latency_s
        assert report.ttff_mean_s > 0.0
        assert any(row["utilization"] > 0.0 for row in report.per_worker)
        assert report.aggregate_fps > 0.0

    def test_summary_is_flat_and_jsonable(self):
        summary = run().summary()
        json.dumps(summary)  # no nested numpy/dataclass leftovers
        assert summary["admitted"] >= 1
        assert summary["p99_latency_ms"] >= summary["p50_latency_ms"]


class TestAdmission:
    def test_overload_sheds_with_queue_full(self):
        # ~20 arrivals in 0.2 s against one worker holding one session.
        report = run(mix="vr-lego:1", arrivals="poisson", rate_hz=100.0,
                     duration_s=0.2, workers=1, queue_limit=1, seed=2)
        assert report.rejected > 0
        assert report.reject_reasons.get("queue_full", 0) > 0
        assert report.reject_rate > 0.0
        # Rejected sessions are never rendered or priced.
        assert report.total_frames == 2 * report.admitted


class TestCacheControl:
    def test_no_cache_disables_reference_reuse(self):
        cached = run(placement="cache_affinity")
        uncached = run(placement="cache_affinity", use_cache=False)
        assert cached.ref_cache_hits > 0
        assert uncached.ref_cache_hits == 0
        assert uncached.ref_cache_misses == 0  # engine never consults it
        # The latency/throughput model is cache-blind (bit-parity
        # contract), so service metrics are unchanged.
        assert uncached.makespan_s == cached.makespan_s


class TestSeedThreading:
    def test_seed_offsets_stochastic_trajectories(self):
        # walk-materials uses a seeded random_walk; the cluster --seed
        # must reach the spec's trajectory seed, not just the arrivals.
        from repro.cluster import Arrival, ClusterSimulator
        from repro.workloads import get_workload
        spec = get_workload("walk-materials")
        keys = []
        for seed in (0, 5):
            sim = ClusterSimulator(FAST, workers=1, frames=2, seed=seed)
            sim.run([Arrival(0.0, spec)])
            worker = sim.workers[0]
            keys.append(worker.completed[0].spec.seed)
        assert keys[0] == spec.seed  # seed 0 leaves the spec untouched
        assert keys[1] == spec.seed + 5


class TestCacheAffinity:
    def test_beats_round_robin_on_skewed_mix(self):
        # Same arrival schedule, only placement differs: co-locating the
        # vr-lego sessions turns their repeated references into worker-
        # local cache hits instead of per-worker misses.
        kwargs = dict(arrivals="poisson", rate_hz=2.0, duration_s=5.0,
                      workers=3, queue_limit=8, frames=3, seed=0)
        affinity = run(placement="cache_affinity", **kwargs)
        spread = run(placement="round_robin", **kwargs)
        assert affinity.ref_cache_hit_rate > spread.ref_cache_hit_rate
        # Placement changes where work lands, not how much work exists.
        assert affinity.total_frames == spread.total_frames


class TestAutoscaling:
    def test_scales_up_under_burst(self):
        report = run(mix="vr-lego:1", arrivals="poisson", rate_hz=30.0,
                     duration_s=0.5, workers=1, queue_limit=8, seed=1,
                     frames=3,
                     autoscaler=Autoscaler(min_workers=1, max_workers=3,
                                           up_load=2.0,
                                           scale_up_latency_s=0.05,
                                           cooldown_s=0.05))
        ups = [e for e in report.scale_events
               if e["action"] == "up_completed"]
        assert ups, report.scale_events
        assert len(report.per_worker) > 1
        # Utilization is busy time over each worker's own lifetime, so
        # even a late-booted worker stays within [0, 1].
        assert all(0.0 <= row["utilization"] <= 1.0
                   for row in report.per_worker)
        # Scale-up latency: the worker went live after it was requested.
        requested = [e for e in report.scale_events
                     if e["action"] == "up_requested"]
        assert ups[0]["t"] == pytest.approx(requested[0]["t"] + 0.05)

    def test_scales_down_when_drained(self):
        # A dense burst builds queue depth (scale up), then arrivals stop
        # and the backlog drains (scale back down).
        report = run(mix="vr-lego:1", arrivals="deterministic",
                     rate_hz=40.0, duration_s=0.25, workers=1,
                     queue_limit=12, frames=4, seed=0,
                     autoscaler=Autoscaler(min_workers=1, max_workers=3,
                                           up_load=1.5,
                                           scale_up_latency_s=0.02,
                                           cooldown_s=0.02))
        downs = [e for e in report.scale_events if e["action"] == "down"]
        assert downs, report.scale_events
        assert report.workers_final < len(report.per_worker)


class TestHarness:
    def test_autoscale_reachable_under_tight_queue_limit(self):
        # The harness couples the scale-up threshold to --queue-limit;
        # with the uncoupled default (2.0) a queue limit of 2 would cap
        # mean load at the threshold and autoscaling would never fire.
        _, summary = run_cluster(
            FAST, mix="vr-lego:1", arrivals="deterministic", rate_hz=40.0,
            duration_s=0.25, workers=1, queue_limit=2, frames=4, seed=0,
            autoscale=True, max_workers=3, scale_up_latency_s=0.02)
        assert summary["scale_ups"] >= 1

    def test_autoscale_bounds_must_bracket_initial_fleet(self):
        for fields in ({"workers": 2, "min_workers": 3},
                       {"workers": 4, "max_workers": 2}):
            cell = RunConfig(mode="cluster", autoscale=True, **fields)
            with pytest.raises(RunConfigError,
                               match="--min-workers..--max-workers"):
                cell.validate()
            # The library entry point validates too: no run starts.
            with pytest.raises(RunConfigError,
                               match="--min-workers..--max-workers"):
                run_cluster(FAST, autoscale=True, **fields)

    def test_run_cluster_rows_and_summary(self):
        rows, summary = run_cluster(
            FAST, mix=SKEWED_MIX, arrivals="deterministic", rate_hz=1.0,
            duration_s=3.0, workers=2, placement="cache_affinity",
            frames=2, seed=0)
        assert len(rows) == 2
        assert {"worker", "utilization", "ref_hit_rate"} <= set(rows[0])
        assert summary["admitted"] == 3
        assert summary["placement"] == "cache_affinity"


class TestCli:
    def test_cluster_writes_bench_json(self, tmp_path, capsys):
        assert main(["cluster", "--fast", "--arrivals", "deterministic",
                     "--rate", "1.0", "--duration", "3", "--workers", "2",
                     "--placement", "cache_affinity", "--frames", "2",
                     "--seed", "0", "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        payload = json.loads((tmp_path / "BENCH_cluster.json").read_text())
        assert payload["figure"] == "cluster"
        assert payload["extra"]["admitted"] >= 1
        assert any(row["utilization"] > 0 for row in payload["rows"])

    def test_missing_input_file_message(self, capsys):
        assert main(["experiment", "--table",
                     "/nonexistent/table.json"]) == 2
        err = capsys.readouterr().err
        assert "table.json" in err  # names the file, not a bare errno

    def test_cluster_autoscale_flags_require_autoscale(self, capsys):
        assert main(["cluster", "--fast", "--max-workers", "8"]) == 2
        assert "--autoscale" in capsys.readouterr().err

    def test_cluster_validates_rate(self, capsys):
        assert main(["cluster", "--fast", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_list_includes_cluster(self, capsys):
        assert main(["list"]) == 0
        assert "cluster" in capsys.readouterr().out
