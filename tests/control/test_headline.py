"""The PR's headline result, locked as a regression.

On an overloaded seeded cluster mix, the adaptive governor must achieve
*strictly* lower reject rate and *strictly* lower p99 frame latency than
running ungoverned — while every workload's served mean probe PSNR stays
at or above the quality floor implied by its ``min_quality_tier``.  And
the CI's governor x offered-load table
(``examples/experiments/frontier-smoke.json``) must emit a strictly valid
``BENCH_experiment.json`` with at least three load points per governor
mode.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import simulate_cluster
from repro.control import quality_floor
from repro.harness.cli import main
from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig
from repro.harness.runner import execute_cell, quality_summary
from repro.workloads import apply_slo

# One worker, shallow queue, ~20 arrivals in half a virtual second, with
# an SLO tight enough that full-quality reference frames violate it.
OVERLOAD = dict(arrivals="poisson", rate_hz=40.0, duration_s=0.5,
                workers=1, queue_limit=2, frames=3, seed=2)
MIX = "vr-lego:3,dolly-chair:1"
SLO_FPS = 3000.0


@pytest.fixture(scope="module")
def off_report():
    return simulate_cluster(MIX, FAST, governor="off", **OVERLOAD)


@pytest.fixture(scope="module")
def adaptive_report():
    return simulate_cluster(apply_slo(MIX, SLO_FPS), FAST,
                            governor="adaptive", **OVERLOAD)


class TestHeadline:
    def test_overload_really_overloads(self, off_report):
        assert off_report.rejected > 0
        assert off_report.reject_reasons.get("queue_full", 0) > 0

    def test_adaptive_strictly_lowers_reject_rate(self, off_report,
                                                  adaptive_report):
        assert adaptive_report.reject_rate < off_report.reject_rate
        assert adaptive_report.admitted > off_report.admitted

    def test_adaptive_strictly_lowers_p99_latency(self, off_report,
                                                  adaptive_report):
        assert adaptive_report.p99_latency_s < off_report.p99_latency_s

    def test_adaptive_actually_governed(self, adaptive_report):
        assert adaptive_report.governor == "adaptive"
        assert adaptive_report.tier_transitions > 0
        assert adaptive_report.overflow_admissions > 0
        assert adaptive_report.governor_events

    def test_psnr_stays_above_every_min_tier_floor(self, adaptive_report):
        specs = {spec.name: spec for spec, _ in apply_slo(MIX, SLO_FPS)}
        for name, buckets in adaptive_report.quality_by_level.items():
            spec = specs[name]
            # The governor never rendered below the allowed ladder rung...
            assert all(int(lvl) <= spec.max_quality_level
                       for lvl in buckets)
        # ...so every workload's served mean PSNR clears its floor.
        quality = quality_summary(apply_slo(MIX, SLO_FPS), FAST,
                                  adaptive_report)
        assert quality["quality_floor_ok"]
        for name, psnr in quality["psnr_per_workload"].items():
            assert psnr >= quality_floor(specs[name], FAST) - 1e-9

    def test_run_cluster_surfaces_quality_summary(self):
        summary = execute_cell(
            RunConfig(mode="cluster", workloads=MIX, governor="adaptive",
                      slo_fps=SLO_FPS, **OVERLOAD), config=FAST).summary
        assert summary["governor"] == "adaptive"
        assert summary["quality_floor_ok"]
        assert summary["mean_psnr"] > 0.0
        json.dumps(summary)  # stays artifact-safe


FRONTIER_TABLE = (Path(__file__).resolve().parents[2] / "examples"
                  / "experiments" / "frontier-smoke.json")


class TestFrontierArtifact:
    def test_frontier_table_writes_valid_artifact(self, tmp_path):
        rc = main(["experiment", "--table", str(FRONTIER_TABLE),
                   "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "BENCH_experiment.json"
        payload = json.loads(
            path.read_text(),
            parse_constant=lambda c: pytest.fail(
                f"non-compliant JSON constant {c!r} in {path}"))
        rows = payload["rows"]
        by_mode = {}
        for row in rows:
            by_mode.setdefault(row["governor"], []).append(row)
        assert set(by_mode) == {"off", "static", "adaptive"}
        for mode, cells in by_mode.items():
            assert len(cells) >= 3, f"{mode} needs >= 3 load points"
        # The frontier's point: adaptive admits at least as much as off
        # at every offered load, without breaking the quality floor.
        for off_row, ad_row in zip(by_mode["off"], by_mode["adaptive"]):
            assert off_row["offered"] == ad_row["offered"]
            assert ad_row["admitted"] >= off_row["admitted"]
            assert ad_row["quality_floor_ok"] is True
