"""Observation must be read-only: traced runs == untraced runs, bit for bit.

The tracer/metrics hooks live inside the engine round loop, the cluster
simulator, the caches, and the governors — right where a careless
instrumentation change could perturb scheduling or RNG state.  These
tests run the same seeded workload with observability off and fully on
and require *identical* results, so any instrumentation that leaks into
measured state fails loudly.
"""

import dataclasses

import pytest

from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig
from repro.harness.runner import execute_cell
from repro.cluster import simulate_cluster
from repro.obs import MetricsRegistry, Observation, Tracer, activate
from repro.workloads import apply_slo, reset_caches

MIX = "vr-lego:2,dolly-chair"


def _observed(fn):
    """Run ``fn`` under a full Observation; also sanity-check it recorded."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with activate(Observation(tracer=tracer, metrics=metrics)):
        result = fn()
    assert len(tracer) > 0, "traced run recorded no events"
    assert len(metrics) > 0, "traced run recorded no metrics"
    return result


def test_serve_bit_parity():
    def run():
        reset_caches()
        result = execute_cell(
            RunConfig(mode="serve", workloads=MIX, frames=3, seed=3,
                      governor="adaptive"), config=FAST)
        return result.rows, result.summary
    plain_rows, plain_summary = run()
    traced_rows, traced_summary = _observed(run)
    assert traced_rows == plain_rows
    assert traced_summary == plain_summary


def test_cluster_bit_parity():
    def run():
        reset_caches()
        return simulate_cluster(
            apply_slo(MIX, 30.0), FAST, arrivals="poisson", rate_hz=4.0,
            duration_s=3.0, seed=7, workers=2, queue_limit=2, frames=4,
            governor="adaptive")
    plain = run()
    traced = _observed(run)
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)


def test_serve_parity_with_parallel_backend():
    # The parallel pool dispatch path has its own instrumentation hook.
    def run():
        reset_caches()
        result = execute_cell(
            RunConfig(mode="serve", workloads=MIX, frames=3, seed=1,
                      backend="parallel", engine_workers=2), config=FAST)
        return result.rows, result.summary
    plain_rows, plain_summary = run()
    traced_rows, traced_summary = _observed(run)
    assert traced_rows == plain_rows
    assert traced_summary == plain_summary


def test_metrics_snapshot_in_artifact_is_finite(tmp_path):
    """Every histogram quantile in an observed run's artifact is finite."""
    import json
    import math
    from repro.harness.reporting import write_bench_json

    def run():
        reset_caches()
        return simulate_cluster(MIX, FAST, arrivals="deterministic",
                                rate_hz=3.0, duration_s=2.0, seed=0,
                                workers=1, frames=3)

    with activate(Observation(metrics=MetricsRegistry())):
        run()
        path = write_bench_json(tmp_path, "cluster", [], 0.1,
                                kind="cluster")
    payload = json.loads(path.read_text())
    histograms = payload["metrics"]["histograms"]
    assert "cluster.frame_latency_s" in histograms
    for name, snap in histograms.items():
        assert snap["count"] > 0
        for key in ("p50", "p95", "p99", "p99.9"):
            assert isinstance(snap[key], float) \
                and math.isfinite(snap[key]), (name, key, snap[key])


def _observed_cluster_cli(tmp_path, name):
    """One observed ``cli cluster`` run: (metrics block, trace census)."""
    import collections
    import json
    from repro.harness.cli import main
    out = tmp_path / name
    trace = out / "cluster.trace.json"
    reset_caches()
    assert main(["cluster", "--fast", "--workload", "vr-lego:3,dolly-chair",
                 "--arrivals", "poisson", "--rate", "6", "--duration", "2",
                 "--workers", "1", "--queue-limit", "2", "--frames", "4",
                 "--governor", "adaptive", "--slo", "30", "--seed", "7",
                 "--json-out", str(out), "--trace", str(trace)]) == 0
    metrics = json.loads((out / "BENCH_cluster.json").read_text())["metrics"]
    events = json.loads(trace.read_text())["traceEvents"]
    census = collections.Counter(
        (e["cat"], e["name"]) for e in events if e["ph"] != "M")
    return metrics, census


def test_render_memo_leaves_engine_counters_and_trace_alone(
        tmp_path, request):
    """The memo saves host time only: counters and trace are unchanged.

    Only wall-clock ``*_s`` sections (a memoized target frame skips
    ``sparw.warp``) and the memo's own counters
    (``engine.render_memo.*``, ``sparw.target_memo.hits``) may differ.
    """
    memo_metrics, memo_census = _observed_cluster_cli(tmp_path, "memo")
    request.getfixturevalue("forced_memo_miss")
    miss_metrics, miss_census = _observed_cluster_cli(tmp_path, "miss")

    def engine_view(metrics):
        counters = {k: v for k, v in metrics["counters"].items()
                    if k.startswith("engine.")
                    and not k.startswith("engine.render_memo.")}
        histograms = {k: v for k, v in metrics["histograms"].items()
                      if k.startswith("engine.") and not k.endswith("_s")}
        return counters, histograms

    assert engine_view(memo_metrics) == engine_view(miss_metrics)
    assert memo_metrics["counters"]["engine.nerf_calls"] > 0
    assert memo_census == miss_census
    memo_counters = memo_metrics["counters"]
    miss_counters = miss_metrics["counters"]
    assert memo_counters["cluster.render_memo.hits"] > 0
    assert miss_counters["cluster.render_memo.hits"] == 0
    assert (memo_counters["cluster.render_memo.hits"]
            + memo_counters["cluster.render_memo.misses"]
            == miss_counters["cluster.render_memo.misses"])
    assert memo_metrics["gauges"]["cluster.render_memo.bytes"] > 0
    assert "cluster.render_memo.evictions" in memo_counters
    # NeRF lookups alone: a miss is a bundle the field evaluated.
    assert memo_counters["engine.render_memo.hits"] > 0
    assert "engine.render_memo.hits" not in miss_counters
    assert (memo_counters["engine.render_memo.hits"]
            + memo_counters["engine.render_memo.misses"]
            == miss_counters["engine.render_memo.misses"])
    assert (memo_counters["engine.render_memo.misses"]
            < memo_counters["cluster.render_memo.misses"])
    # Target frames answered from the memo skip their warp; a forced-miss
    # run warps every one.
    assert memo_counters["sparw.target_memo.hits"] > 0
    assert miss_counters.get("sparw.target_memo.hits", 0) == 0
