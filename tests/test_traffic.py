"""The traffic recorder (``tools/traffic.py``) on one cheap command."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traffic():
    spec = importlib.util.spec_from_file_location(
        "traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_reports_uncalled_library_functions_by_file():
    traffic = _traffic()
    called, _ = traffic.record([traffic.cli("workloads")])
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
        "--json-out", str(tmp_path))])
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
