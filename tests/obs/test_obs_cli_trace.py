"""End-to-end --trace surface: artifacts a viewer/analyzer can load."""

import json
import math

import pytest

from repro.harness.cli import main
from repro.workloads import reset_caches

# The two observed runs of the workflow's smoke job (trace steps).  Mixed
# sessions batch several bundles per round, so the parallel backend emits
# pool dispatch events.
SERVE_MIXED = ["serve", "--fast", "--frames", "4", "--seed", "0",
               "--workload", "vr-lego:2", "--workload", "dolly-chair",
               "--backend", "parallel", "--engine-workers", "2"]
# Tight queue + 30 fps SLO force adaptive-governor retunes.
CLUSTER_ADAPTIVE = ["cluster", "--fast", "--workload",
                    "vr-lego:3,dolly-chair:2", "--arrivals", "poisson",
                    "--rate", "6", "--duration", "4", "--workers", "1",
                    "--queue-limit", "2", "--frames", "6",
                    "--governor", "adaptive", "--slo", "30", "--seed", "7"]
REQUIRED_CATEGORIES = {
    "serve": {"engine", "frame", "cache", "pool"},
    "cluster": {"engine", "frame", "cache", "cluster", "governor"},
}
STAGE_HISTOGRAMS = (
    "nerf.sample_s", "nerf.interpolate_s", "nerf.decode_s",
    "nerf.composite_s", "sparw.warp_s", "sparw.classify_s",
    "sparw.assemble_s", "engine.round_s", "workloads.bake_s")


def _strict_load(path):
    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token!r}")
    return json.loads(path.read_text(), parse_constant=reject)


def _observed_run(tmp_path_factory, name, argv, artifact):
    tmp_path = tmp_path_factory.mktemp(f"{name}-observed")
    trace = tmp_path / f"{name}.trace.json"
    assert main([*argv, "--json-out", str(tmp_path),
                 "--trace", str(trace)]) == 0
    return trace, tmp_path / artifact


@pytest.fixture(scope="module")
def serve_observed(tmp_path_factory):
    reset_caches()  # a cold start, so the run bakes its fields
    return _observed_run(tmp_path_factory, "serve", SERVE_MIXED,
                         "BENCH_serve_mixed.json")


@pytest.fixture(scope="module")
def cluster_adaptive_observed(tmp_path_factory):
    return _observed_run(tmp_path_factory, "cluster", CLUSTER_ADAPTIVE,
                         "BENCH_cluster.json")


@pytest.fixture(params=["serve", "cluster"])
def observed(request):
    fixture = {"serve": "serve_observed",
               "cluster": "cluster_adaptive_observed"}[request.param]
    return (request.param, *request.getfixturevalue(fixture))


def test_observed_trace_covers_required_categories(observed):
    name, trace, _ = observed
    events = _strict_load(trace)["traceEvents"]
    assert events
    categories, spans = set(), set()
    for event in events:
        assert "ph" in event, event
        if event["ph"] == "M":
            continue
        categories.add(event["cat"])
        if event["ph"] == "X":
            spans.add(event["name"])
    assert REQUIRED_CATEGORIES[name] <= categories
    assert {"frame.wait", "frame.serve", "engine.round"} <= spans


def test_observed_artifact_quantiles_are_finite(observed):
    _, _, artifact = observed
    metrics = _strict_load(artifact)["metrics"]
    assert metrics["counters"]
    for name, snap in metrics["histograms"].items():
        assert snap["count"] > 0, name
        for key in ("p50", "p95", "p99", "p99.9"):
            assert isinstance(snap[key], float) \
                and math.isfinite(snap[key]), (name, key)


def test_serve_artifact_carries_stage_histograms(tmp_path):
    # In-process: the pool's workers record no stage sections.
    reset_caches()  # a cold start, so the run bakes its field
    assert main(["serve", "--fast", "--workload", "vr-lego", "--frames",
                 "2", "--json-out", str(tmp_path)]) == 0
    artifact = tmp_path / "BENCH_serve_mixed.json"
    histograms = _strict_load(artifact)["metrics"]["histograms"]
    counts = {name: histograms.get(name, {}).get("count", 0)
              for name in STAGE_HISTOGRAMS}
    assert all(counts.values()), counts


@pytest.fixture(scope="module")
def cluster_trace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cluster-trace")
    trace = tmp_path / "cluster.trace.json"
    rc = main(["cluster", "--fast", "--arrivals", "deterministic",
               "--rate", "3", "--duration", "2", "--workers", "1",
               "--frames", "3", "--seed", "0",
               "--json-out", str(tmp_path), "--trace", str(trace)])
    assert rc == 0
    return tmp_path, trace


def test_cluster_trace_has_required_spans(cluster_trace):
    _, trace = cluster_trace
    payload = _strict_load(trace)
    events = payload["traceEvents"]
    spans_by_name = {}
    for event in events:
        assert "ph" in event
        if event["ph"] == "X":
            spans_by_name.setdefault(event["name"], []).append(event)
    assert len(spans_by_name.get("engine.round", [])) > 0
    assert len(spans_by_name.get("frame.serve", [])) > 0
    assert len(spans_by_name.get("frame.wait", [])) > 0
    for span in spans_by_name["engine.round"]:
        assert span["dur"] > 0
        assert span["args"]["rays"] >= 0


def test_cluster_trace_lane_metadata_names_workers(cluster_trace):
    _, trace = cluster_trace
    events = _strict_load(trace)["traceEvents"]
    processes = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
    assert "cluster" in processes
    assert any(label.startswith("worker") for label in processes)


def test_cluster_artifact_carries_metrics(cluster_trace):
    tmp_path, _ = cluster_trace
    payload = _strict_load(tmp_path / "BENCH_cluster.json")
    metrics = payload["metrics"]
    assert metrics["counters"]["cluster.frames"] > 0
    assert metrics["histograms"]["cluster.frame_latency_s"]["count"] > 0


def test_analyze_runs_on_real_trace(cluster_trace, capsys):
    _, trace = cluster_trace
    assert main(["trace", "analyze", str(trace), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "event census" in out
    assert "engine round occupancy" in out


def test_serve_trace_smoke(tmp_path):
    trace = tmp_path / "serve.trace.json"
    rc = main(["serve", "--fast", "--workload", "vr-lego",
               "--frames", "2", "--trace", str(trace)])
    assert rc == 0
    events = _strict_load(trace)["traceEvents"]
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert {"frame.wait", "frame.serve"} <= names
