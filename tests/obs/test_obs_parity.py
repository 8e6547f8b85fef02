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
from repro.workloads import reset_caches

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
            MIX, FAST, arrivals="poisson", rate_hz=4.0, duration_s=3.0,
            seed=7, workers=2, queue_limit=2, frames=4,
            governor="adaptive", slo_fps=30.0)
    plain = run()
    traced = _observed(run)
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)


def test_cluster_parity_with_parallel_backend():
    # The parallel pool dispatch path has its own instrumentation hook.
    def run():
        reset_caches()
        return simulate_cluster(
            MIX, FAST, arrivals="deterministic", rate_hz=3.0,
            duration_s=2.0, seed=1, workers=1, frames=3,
            backend="parallel")
    plain = run()
    traced = _observed(run)
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)


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
