"""The checked-in perf trajectory stays loadable, strict and complete.

Every ``benchmarks/history/*.json`` must parse with a strict parser (no
``NaN`` / ``Infinity``), carry the summary keys, and cover every workload
x end-to-end metric ``BENCHMARK.json`` declares; ``tools/bench_history.py``
must produce exactly that shape from e2e run files, and its
``--trajectory`` chain must equal the product of the checked-in pairs'
change / parent median ratios.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
METRICS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
REQUIRED = {"schema", "label", "source", "git_revision", "host",
            "workloads", "ratios"}
RATIO_KEY = "solo_sparw/solo_dense frames_per_s"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_load(path: Path) -> dict:
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_summary(summary: dict) -> None:
    assert REQUIRED <= set(summary), REQUIRED - set(summary)
    assert summary["schema"] == 1
    assert summary["source"] in ("measured", "backfilled")
    assert summary["host"]["cpu_count"] >= 1
    assert set(summary["workloads"]) == set(WORKLOADS)
    for workload, metrics in summary["workloads"].items():
        assert set(metrics) == set(METRICS), workload
        for name, cell in metrics.items():
            assert cell["unit"] == METRICS[name]
            assert cell["n"] >= 1
            assert cell["q1"] <= cell["median"] <= cell["q3"], (workload, name)
            assert all(math.isfinite(cell[k]) for k in ("q1", "median", "q3"))
    ratio = summary["ratios"][RATIO_KEY]
    assert ratio["median"] > 0 and ratio["n"] >= 1
    if summary["source"] == "measured":  # paired runs: a quartile range
        assert ratio["q1"] <= ratio["median"] <= ratio["q3"]
    for quoted in summary.get("quoted_ranges", ()):
        assert quoted["workload"] in WORKLOADS
        assert quoted["metric"] in METRICS
        assert quoted["low"] <= quoted["high"]


HISTORY_FILES = sorted(HISTORY_DIR.glob("*.json"))


def test_history_holds_this_pr_its_parent_and_the_backfill():
    names = {path.name for path in HISTORY_FILES}
    assert {"pr16-parent.json", "pr16.json",
            "backfill-pr11-13.json"} <= names


@pytest.mark.parametrize("path", HISTORY_FILES, ids=lambda p: p.name)
def test_history_file_is_strict_and_complete(path):
    summary = strict_load(path)
    check_summary(summary)
    assert path.stem == summary["label"]


def test_strict_loader_rejects_nan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"median": NaN}')
    with pytest.raises(ValueError, match="NaN"):
        strict_load(bad)


def _run_file(workload, seed, index, fps):
    values = {"frames_per_s": fps, "ttff_p50_ms": 10.0 + index,
              "stream_p50_ms": 20.0, "setup_s": 1.0, "peak_rss_mb": 100.0}
    return {
        "schema": 1, "workload": workload, "seed": seed, "seconds": 5.0,
        "trace": False, "skipped": None, "failed": 0,
        "git_revision": "abc123",
        "host": {"calib_before_ms": 60.0, "calib_after_ms": 62.0,
                 "loadavg1": 0.5, "cpu_count": 2,
                 "fingerprint": {"python": "3.11", "cpu_count": 2,
                                 "git_revision": "abc123"}},
        "metrics": {name: {"value": value, "unit": METRICS[name]}
                    for name, value in values.items()},
    }


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_history", REPO_ROOT / "tools" / "bench_history.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_history_projects_runs_into_a_summary(tmp_path, tool):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed, scale in ((1, 1.0), (2, 1.1), (3, 1.2)):
        for workload in WORKLOADS:
            fps = {"solo_sparw": 40.0, "solo_dense": 10.0}.get(workload, 5.0)
            (runs / f"{workload}-seed{seed}-e2e-0.json").write_text(
                json.dumps(_run_file(workload, seed, seed, fps * scale)))
    # Traced runs and Chrome traces share the directory and are skipped.
    traced = _run_file("solo_dense", 1, 0, 1e9)
    traced["trace"] = True
    (runs / "solo_dense-seed1-trace-0.json").write_text(json.dumps(traced))
    (runs / "solo_dense-seed1-trace-0.trace.json").write_text("[]")

    out = tmp_path / "history" / "demo.json"
    assert tool.main([str(runs), "--label", "demo", "--out", str(out)]) == 0
    summary = strict_load(out)
    check_summary(summary)
    assert summary["label"] == "demo" and summary["source"] == "measured"
    assert summary["git_revision"] == "abc123"
    assert summary["seeds"] == [1, 2, 3]
    dense = summary["workloads"]["solo_dense"]["frames_per_s"]
    assert (dense["median"], dense["n"]) == (11.0, 3)
    # Paired by seed, every ratio is 4: the scale cancels.
    assert summary["ratios"][RATIO_KEY] == {"median": 4.0, "q1": 4.0,
                                            "q3": 4.0, "n": 3}


def test_trajectory_chains_the_checked_in_pairs(tool):
    pairs = {}
    for path in HISTORY_FILES:
        label = path.stem.removesuffix("-parent")
        if label.startswith("pr"):
            side = "parent" if path.stem.endswith("-parent") else "change"
            pairs.setdefault(int(label[2:]), {})[side] = strict_load(path)
    pairs = {n: sides for n, sides in sorted(pairs.items())
             if len(sides) == 2}
    assert list(pairs)[0] == 16 and 30 in pairs

    expected = {}
    for sides in pairs.values():
        for workload in WORKLOADS:
            for metric in METRICS:
                ratio = (sides["change"]["workloads"][workload][metric]
                         ["median"]
                         / sides["parent"]["workloads"][workload][metric]
                         ["median"])
                expected[(workload, metric)] = (
                    expected.get((workload, metric), 1.0) * ratio)

    chains = tool.trajectory(tool.history_pairs(HISTORY_DIR))
    assert set(chains) == set(expected)
    for key, chain in chains.items():
        assert list(chain["ratios"]) == [f"pr{n}" for n in pairs]
        assert chain["chained"] == pytest.approx(expected[key], rel=1e-12)


def test_trajectory_cancels_a_host_phase(tmp_path, tool):
    """Two pairs measured in different host phases chain to their product."""
    def summary(fps):
        return {"workloads": {"cluster_sim": {"frames_per_s": {
            "median": fps}}}}

    # Pair 1 in a fast phase (+10 %), pair 2 in a slow phase (-40 %).
    files = {"pr1-parent": 110.0, "pr1": 220.0,
             "pr2-parent": 60.0, "pr2": 90.0,
             "pr3-parent": 50.0,  # no change file: not a pair
             "backfill-pr0": 1.0}
    for name, fps in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(summary(fps)))
    pairs = tool.history_pairs(tmp_path)
    assert [label for label, _, _ in pairs] == ["pr1", "pr2"]
    chain = tool.trajectory(pairs)[("cluster_sim", "frames_per_s")]
    assert chain["ratios"] == {"pr1": 2.0, "pr2": 1.5}
    assert chain["chained"] == pytest.approx(3.0)


def test_trajectory_command_prints_every_workload_metric(tool, capsys):
    assert tool.main(["--trajectory"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("x since pr16-parent")
    rows = {tuple(line.split()[:2]) for line in lines[2:]}
    assert rows == {(w, m) for w in WORKLOADS for m in METRICS}
