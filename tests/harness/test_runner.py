"""Factorial experiment runner: tables, hashing, resume, economics."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.harness.cli import build_parser, cell_from_args, main
from repro.harness.configs import FAST
from repro.harness.runconfig import (
    MODES,
    ClusterConfig,
    RunConfig,
    RunConfigError,
    ServeConfig,
    config_fields,
)
from repro.harness.runner import ExperimentTable, execute_cell, run_table

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "experiments"

QUICK_TABLE = {
    "name": "quick",
    "base": {"mode": "cluster", "scale": "fast", "duration_s": 0.4,
             "frames": 2, "workers": 2, "queue_limit": 2, "seed": 3},
    "axes": {"placement": ["least_loaded", "cache_affinity"],
             "rate_hz": [5.0, 9.0]},
}


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token!r}")
    return json.loads(text, parse_constant=reject)


class TestRunConfig:
    def test_dict_round_trip_preserves_hash(self):
        cell = RunConfig(mode="cluster", workloads="vr-lego:2",
                         rate_hz=4.0, governor="adaptive", slo_fps=30.0,
                         label="a cell")
        back = RunConfig.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert back == cell
        assert back.config_hash() == cell.config_hash()

    def test_label_does_not_affect_hash(self):
        a = RunConfig(rate_hz=4.0, label="one")
        b = RunConfig(rate_hz=4.0, label="two")
        assert a.config_hash() == b.config_hash()

    def test_result_affecting_field_changes_hash(self):
        assert RunConfig(seed=0).config_hash() \
            != RunConfig(seed=1).config_hash()

    def test_rejects_unknown_field(self):
        with pytest.raises(RunConfigError, match="unknown RunConfig field"):
            RunConfig.from_dict({"rate": 4.0})

    def test_serve_rejects_cluster_only_knobs(self):
        with pytest.raises(RunConfigError, match="cluster-only"):
            RunConfig(mode="serve", workers=4).validate()

    def test_cluster_rejects_serve_only_knobs(self):
        with pytest.raises(RunConfigError, match="serve-only"):
            RunConfig(mode="cluster", sessions=4).validate()

    def test_serve_governor_accepted_without_workload_mix(self):
        # The scene-cycling sessions are workload specs with SLO fields,
        # so a static governor pins them like any --workload mix.
        cell = RunConfig(mode="serve", sessions=2, frames=2,
                         governor="static").validate()
        result = execute_cell(cell, config=FAST)
        assert [row["quality_level"] for row in result.rows] == [2, 2]
        RunConfig(mode="serve", slo_fps=5.0).validate()

    def test_autoscale_knobs_require_autoscale(self):
        with pytest.raises(RunConfigError, match="require --autoscale"):
            RunConfig(mode="cluster", min_workers=1).validate()

    def test_cluster_rejects_backend(self):
        with pytest.raises(RunConfigError,
                           match=r"--backend \(backend\) is a "
                                 r"serve-only option: not valid "
                                 r"on a cluster cell"):
            RunConfig(mode="cluster", backend="parallel").validate()
        # The live server renders in-process too.
        with pytest.raises(RunConfigError,
                           match=r"--engine-workers \(engine_workers\) is "
                                 r"a serve-only option: not valid on a "
                                 r"realserve cell"):
            RunConfig(mode="realserve", engine_workers=2).validate()

    @pytest.mark.parametrize("mode, fields, message", [
        ("cluster", {"seed": -1}, "--seed must be >= 0"),
        ("serve", {"seed": -8, "workloads": "walk-materials"},
         "--seed must be >= 0"),
        ("realserve", {"seed": -1}, "--seed must be >= 0"),
        ("cluster", {"autoscale": True, "min_workers": 0},
         "--min-workers must be >= 1"),
        ("cluster", {"autoscale": True, "max_workers": 0},
         "--max-workers must be >= 1"),
        ("cluster", {"autoscale": True, "scale_up_latency_s": -1.0},
         "--scale-up-latency must be >= 0"),
    ])
    def test_values_the_executor_refuses_fail_validation(self, mode, fields,
                                                         message):
        with pytest.raises(RunConfigError, match=message):
            RunConfig(mode=mode, **fields).validate()

    def test_a_refused_cell_stops_the_table_before_any_cell_runs(self):
        table = ExperimentTable.from_dict(
            {"base": {"mode": "cluster"}, "axes": {"seed": [0, -1]}})
        with pytest.raises(RunConfigError, match="--seed must be >= 0"):
            table.cells()

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--fast", "--seed", "-1"], "--seed must be >= 0"),
        (["cluster", "--fast", "--autoscale", "--min-workers", "0"],
         "--min-workers must be >= 1"),
    ])
    def test_cli_names_the_refused_flag(self, argv, message, capsys):
        assert main(argv) == 2
        assert f"{argv[0]}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [
        lambda: RunConfig(mode="serve", backend="numba").validate(),
        lambda: ExperimentTable.from_dict(
            {"base": {"mode": "serve"},
             "axes": {"backend": ["numpy", "numba"]}}).cells(),
    ], ids=["config", "table-cell"])
    def test_dropped_numba_backend_is_unknown(self, build):
        with pytest.raises(RunConfigError,
                           match=r"'numba'.*'numpy', 'parallel'"):
            build()


class TestWireFormatLock:
    """The flat dict and its hash, recorded before RunConfig was split
    into sections: table files, cell artifacts and --resume depend on
    them byte for byte."""

    KEYS = [
        "arrivals", "autoscale", "backend", "catalog", "duration_s",
        "engine_workers", "frames", "governor", "host", "label",
        "max_workers", "min_workers", "mode", "placement", "port",
        "queue_limit", "rate_hz", "ray_budget", "repetition", "replication",
        "scale", "scale_up_latency_s", "scheduler", "seed", "sessions",
        "slo_fps", "time_scale", "use_cache", "workers", "workloads", "zipf"]

    def test_flat_key_set(self):
        assert sorted(RunConfig().to_dict()) == self.KEYS
        assert len(self.KEYS) == 31

    def test_default_cell_hash(self):
        assert RunConfig().config_hash() == (
            "d5c59e9219f70c6441932bb78ffad692"
            "0b049d70aeec6b2ab6ea222827275624")

    @pytest.mark.parametrize("table, first, last", [
        ("quick.json",
         "42675091ff3aa671511a84bf8f50920c15e00d44889081f6e1371618f8268f4c",
         "1e7c931b25861b4552919e84612686b6b9c4223195e1b20b0e737d66451ecaf0"),
        ("frontier-fast.json",
         "3305650424bb96790efe40c4bf44e4f3c2084ccebea06db78459db1553900c1c",
         "338ab757948d12b18bbb36ecf1990d2a31b48862840b59a6ef778e3fb4dc8fe9"),
    ], ids=["quick", "frontier-fast"])
    def test_checked_in_table_cell_hashes(self, table, first, last):
        cells = ExperimentTable.from_file(EXAMPLES / table).cells()
        assert cells[0].config_hash() == first
        assert cells[-1].config_hash() == last

    def test_foreign_key_at_its_default_loads_back(self):
        # to_dict() writes every section, so from_dict() must accept an
        # inactive section's keys at their defaults — and only there.
        flat = RunConfig(mode="serve", sessions=3).to_dict()
        assert flat["workers"] is None and flat["use_cache"] is True
        assert RunConfig.from_dict(flat) == RunConfig(mode="serve",
                                                      sessions=3)
        with pytest.raises(RunConfigError, match="cluster-only"):
            RunConfig.from_dict({**flat, "workers": 4})


class TestCliParity:
    """Each command's parser is generated from the config sections its
    mode takes, so another mode's flags do not exist on it, and a value
    every command takes is checked by the one shared validator."""

    @staticmethod
    def _takes(command, field):
        meta = field.metadata
        sample = ([] if "const" in meta
                  else [str(meta.get("choices", ["1"])[0])])
        # parse_known_args hands back what the command did not recognise.
        _, unknown = build_parser().parse_known_args(
            [command, "--fast", meta["flag"], *sample])
        return meta["flag"] not in unknown

    def test_serve_only_rejection_is_identical(self):
        for field in dataclasses.fields(ServeConfig):
            assert not self._takes("cluster", field)
            assert self._takes("serve", field)

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_bad_frames_rejection_is_identical(self, command, capsys):
        args = build_parser().parse_args([command, "--fast", "--frames", "0"])
        with pytest.raises(RunConfigError, match=r"--frames must be >= 1"):
            cell_from_args(command, args)
        assert main([command, "--fast", "--frames", "0"]) == 2
        assert f"{command}: --frames must be >= 1" in capsys.readouterr().err

    # Through the parser, never main(): a run that accepted inf would
    # not return.
    @pytest.mark.parametrize("mode, field", [
        (mode, field) for mode in MODES for field in config_fields(mode)
        if field.metadata.get("type") is float],
        ids=lambda each: each if isinstance(each, str) else each.name)
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_float_flag_is_rejected(self, mode, field, value):
        command = {"serve": "serve", "cluster": "cluster",
                   "realserve": "loadgen"}[mode]
        flag = field.metadata["flag"]
        args = build_parser().parse_args([command, "--fast",
                                          f"{flag}={value}"])
        with pytest.raises(RunConfigError, match=f"{flag} must be finite"):
            cell_from_args(mode, args)
        with pytest.raises(RunConfigError, match=f"{flag} must be finite"):
            RunConfig(mode=mode, **{field.name: float(value)}).validate()

    def test_serve_rejects_cluster_flags(self):
        for field in dataclasses.fields(ClusterConfig):
            assert not self._takes("serve", field)
            assert self._takes("cluster", field)


class TestExperimentTable:
    def test_expansion_counts_axes_times_repetitions(self):
        table = ExperimentTable.from_dict(
            {**QUICK_TABLE, "repetitions": 3})
        cells = table.cells()
        assert len(cells) == 2 * 2 * 3
        # Repetition r offsets the effective seed by r via the field.
        assert sorted({c.repetition for c in cells}) == [0, 1, 2]
        assert all(c.seed == 3 for c in cells)
        # Every cell carries its axis assignment.
        assert {(c.placement, c.rate_hz) for c in cells} \
            == {("least_loaded", 5.0), ("least_loaded", 9.0),
                ("cache_affinity", 5.0), ("cache_affinity", 9.0)}

    def test_cell_labels_name_their_assignment(self):
        table = ExperimentTable.from_dict(QUICK_TABLE)
        labels = [c.label for c in table.cells()]
        assert labels[0] == "placement=least_loaded,rate_hz=5.0"
        assert len(set(labels)) == len(labels)

    def test_rejects_unknown_axis(self):
        with pytest.raises(RunConfigError, match="not a sweepable"):
            ExperimentTable.from_dict(
                {"base": {}, "axes": {"bogus": [1, 2]}})

    def test_rejects_invalid_cells_at_expansion(self):
        table = ExperimentTable.from_dict(
            {"base": {"mode": "cluster"}, "axes": {"workers": [1, 0]}})
        with pytest.raises(RunConfigError, match=">= 1"):
            table.cells()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(QUICK_TABLE))
        table = ExperimentTable.from_file(path)
        assert table.name == "quick"
        assert len(table.cells()) == 4


class TestRunTable:
    def _table(self):
        return ExperimentTable.from_dict(QUICK_TABLE)

    def test_one_row_per_cell_with_finite_economics(self, tmp_path):
        rows, extra, path = run_table(self._table(), tmp_path)
        assert len(rows) == 4
        assert extra["executed"] == 4 and extra["resumed"] == 0
        for row in rows:
            for key in ("total_energy_j", "joules_per_frame",
                        "usd_per_frame"):
                assert isinstance(row[key], float)
                assert math.isfinite(row[key])
        # The aggregated artifact is strict JSON; the CSV twin exists
        # with one line per cell plus the header.
        payload = strict_loads(path.read_text())
        assert payload["schema_version"] == 2
        assert payload["kind"] == "experiment"
        assert len(payload["rows"]) == 4
        csv_lines = (tmp_path / "BENCH_experiment.csv") \
            .read_text().strip().splitlines()
        assert len(csv_lines) == 5

    def test_same_seed_reruns_bit_identical(self, tmp_path):
        first, _, _ = run_table(self._table(), tmp_path / "a")
        second, _, _ = run_table(self._table(), tmp_path / "b")
        assert first == second

    def test_resume_skips_matching_cells(self, tmp_path):
        table = self._table()
        baseline, _, _ = run_table(table, tmp_path)
        # Simulate an interrupted run: two cell artifacts missing.
        (tmp_path / "cells" / "BENCH_quick_cell001.json").unlink()
        (tmp_path / "cells" / "BENCH_quick_cell003.json").unlink()
        rows, extra, _ = run_table(table, tmp_path, resume=True)
        assert extra["executed"] == 2 and extra["resumed"] == 2
        assert rows == baseline

    def test_resume_reruns_changed_cells(self, tmp_path):
        run_table(self._table(), tmp_path)
        changed = ExperimentTable.from_dict(
            {**QUICK_TABLE, "base": {**QUICK_TABLE["base"], "seed": 4}})
        rows, extra, _ = run_table(changed, tmp_path, resume=True)
        assert extra["executed"] == 4 and extra["resumed"] == 0
        assert all(row["config_hash"] == cell.config_hash()
                   for row, cell in zip(rows, changed.cells()))

    def test_without_resume_everything_reruns(self, tmp_path):
        run_table(self._table(), tmp_path)
        _, extra, _ = run_table(self._table(), tmp_path)
        assert extra["executed"] == 4 and extra["resumed"] == 0


class TestExecuteCellParity:
    def test_catalog_cell_label_and_row(self):
        # The catalog expands inside simulate_cluster (the one catalog
        # path); the cell's label and row are those recorded when the
        # runner still expanded a second copy itself.
        cell = RunConfig(mode="cluster", workloads="vr-lego:2,dolly-chair",
                         catalog=8, duration_s=1.0, rate_hz=6.0, frames=2,
                         workers=2, seed=5, slo_fps=20.0,
                         placement="shard_affinity").validate()
        result = execute_cell(cell, config=FAST)
        assert result.mix_label == \
            "vr-lego:2,dolly-chair:1 ×8 catalog (zipf=1.1, R=2)"
        assert result.row == {
            "governor": "off", "offered_rate_hz": 6.0, "offered": 7,
            "admitted": 7, "admitted_rate": 1.0, "reject_rate": 0.0,
            "p99_latency_ms": 557.3573691437908,
            "mean_latency_ms": 365.55583994991025,
            "aggregate_fps": 9.035880757078024,
            "mean_quality_level": 0.0, "tier_transitions": 0,
            "overflow_admissions": 0, "mean_psnr": 0.0,
            "min_workload_psnr": 0.0, "quality_floor_ok": True,
            "total_energy_j": 0.009757098110000001,
            "joules_per_frame": 0.0006969355792857143,
            "usd_per_frame": 5.684827555029012e-07,
            "hierarchy_hit_rate": 0.5714285714285714, "field_bakes": 3,
            "ttff_p95_ms": 557.3573691437908}

    def test_governed_sessions_serve_prices_one_variant(self, monkeypatch):
        # The governor closes its loop on the same SoC clock the report
        # prices: a --sessions cell's specs carry the one variant.
        from repro.harness import runner
        governors, reports = [], []

        class SpyGovernor(runner.EngineGovernor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                governors.append(self)

        def spy_aggregate(*args, **kwargs):
            reports.append(runner_aggregate(*args, **kwargs))
            return reports[-1]

        runner_aggregate = runner.aggregate_serving
        monkeypatch.setattr(runner, "EngineGovernor", SpyGovernor)
        monkeypatch.setattr(runner, "aggregate_serving", spy_aggregate)
        cell = RunConfig(mode="serve", sessions=2, frames=4,
                         governor="adaptive", slo_fps=30.0).validate()
        execute_cell(cell, config=FAST)
        (governor,), (report,) = governors, reports
        assert governor.clock_s == pytest.approx(report.makespan_s)

    @pytest.mark.parametrize("knobs", [
        {}, dict(ray_budget=3000, governor="adaptive", slo_fps=400.0)])
    def test_serve_cell_repeats_in_one_process(self, knobs):
        # Each run owns its reference cache, so a repeat hits nothing the
        # first run left behind; only the process-wide field cache (the
        # host-side "fields" block) remembers it.
        cell = RunConfig(mode="serve", workloads="vr-lego:3,dolly-chair:1",
                         frames=6, **knobs).validate()
        first, second = (execute_cell(cell, config=FAST).summary
                         for _ in range(2))
        for summary in (first, second):
            del summary["cache"]["fields"]
        assert first == second

    def test_serve_cell_reports_energy(self):
        cell = RunConfig(mode="serve", workloads="vr-lego:2",
                         frames=2).validate()
        result = execute_cell(cell, config=FAST)
        assert result.row["total_energy_j"] > 0.0
        assert math.isfinite(result.row["usd_per_frame"])
        assert result.summary["joules_per_frame"] > 0.0
