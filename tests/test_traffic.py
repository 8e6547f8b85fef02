"""The traffic recorder (``tools/traffic.py``) on cheap commands."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traffic():
    spec = importlib.util.spec_from_file_location(
        "traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_reports_uncalled_library_functions_by_file(tmp_path):
    traffic = _traffic()
    called, _ = traffic.record([traffic.cli("workloads")], tmp_path)
    missed = traffic.never_called(called)
    defs = traffic.library_defs()
    assert called and len(missed) + len(called & set(defs)) == len(defs)
    for entry in missed:
        path, _ = entry.split(" ", 1)
        assert path.startswith("src/repro/") and path.endswith(".py")
    assert "src/repro/harness/cli.py run_workloads_listing" not in missed
    assert "src/repro/harness/cli.py run_cluster_command" in missed


def test_recorder_reports_what_a_command_never_sets(tmp_path):
    traffic = _traffic()
    called, surface = traffic.record([traffic.cli(
        "cluster", "--fast", "--arrivals", "deterministic", "--rate", "2",
        "--duration", "1", "--frames", "1", "--workers", "1", "--seed", "3",
        "--json-out", str(tmp_path))], tmp_path)
    unset = traffic.never_set(called, surface)
    # Set by the command: its flags' fields and the parameters they reach.
    assert {"RunConfig.rate_hz", "RunConfig.workers", "RunConfig.seed"} \
        <= surface.fields
    for entry in ("RunConfig.rate_hz",
                  "src/repro/cluster/arrivals.py make_arrivals(rate_hz)",
                  "src/repro/cluster/arrivals.py "
                  "deterministic_arrivals(seed)"):
        assert entry not in unset
    # Left at their defaults by it.
    for entry in ("RunConfig.placement", "RunConfig.catalog",
                  "src/repro/cluster/simulator.py "
                  "simulate_cluster(use_cache)"):
        assert entry in unset
    # A parameter of a function it never called is not listed again.
    assert not any(entry.startswith("src/repro/harness/runner.py run_table(")
                   for entry in unset)


def test_expected_list_names_a_keep_category_per_entry():
    traffic = _traffic()
    expected = traffic.load_expected()
    assert expected["never called"] and expected["never set"]
    for entries in expected.values():
        assert set(entries.values()) <= set(traffic.CATEGORIES)


def test_a_runs_stdout_lands_in_its_log(tmp_path):
    traffic = _traffic()
    traffic.record([traffic.cli("list"), traffic.cli("workloads")], tmp_path)
    assert sorted(path.name for path in (tmp_path / "logs").iterdir()) \
        == ["01.txt", "02.txt"]
    log = (tmp_path / "logs" / "02.txt").read_text()
    assert log.startswith("$ workloads\n") and "vr-lego" in log


@pytest.mark.parametrize("argv, error", [
    (("serve", "--fast", "--frames", "0"), "--frames must be >= 1"),
    (("serve", "--fast", "--bogus"), "unrecognized arguments: --bogus"),
], ids=["returns-2", "argparse-exit"])
def test_a_failing_run_exits_with_its_label_and_log_tail(tmp_path, argv,
                                                         error):
    traffic = _traffic()
    with pytest.raises(SystemExit) as stop:
        traffic.record([traffic.cli("workloads"), traffic.cli(*argv)],
                       tmp_path)
    message = str(stop.value)
    assert message.startswith(f"traffic: {' '.join(argv)} exited 2")
    assert error in message.splitlines()[-1]  # the CLI's own error


def test_a_failing_check_exits_with_its_label_and_log_tail(tmp_path):
    traffic = _traffic()

    def check():
        print("rows compared")
        raise AssertionError("per-session rows differ")

    with pytest.raises(SystemExit) as stop:
        traffic.record([("check: same rows", check)], tmp_path)
    lines = str(stop.value).splitlines()
    assert lines[0].startswith("traffic: check: same rows exited 1")
    assert "rows compared" in lines
    assert lines[-1] == "AssertionError: per-session rows differ"


def test_an_output_check_fails_on_a_missing_heading(tmp_path):
    traffic = _traffic()
    traffic.record([traffic._printing(traffic.cli("workloads"), "vr-lego")],
                   tmp_path)
    with pytest.raises(SystemExit, match="lacks \\['event census'\\]"):
        traffic.record([traffic._printing(traffic.cli("workloads"),
                                          "vr-lego", "event census")],
                       tmp_path)
    # The checked output still lands in the log.
    assert "vr-lego" in (tmp_path / "logs" / "01.txt").read_text()


def test_the_live_server_child_is_reaped_when_the_run_fails(tmp_path):
    traffic = _traffic()
    with pytest.raises(RuntimeError, match="the run failed"):
        with traffic.live_server(tmp_path / "server.txt") as (server,
                                                              address):
            assert re.fullmatch(r"127\.0\.0\.1:\d+", address)
            raise RuntimeError("the run failed")
    assert server.poll() is not None


def test_ci_runs_no_command_but_the_recorder():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python tools/traffic.py" in workflow
    for direct in ("repro.harness.cli", "benchmarks/e2e/run.py"):
        assert direct not in workflow, (
            f"ci.yml runs {direct}; add the run to tools/traffic.py's "
            "run list instead")
