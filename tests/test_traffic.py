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
    called = traffic.record([traffic.cli("workloads")])
    report = traffic.uncalled(called)
    defs = traffic.library_defs()
    missed = [name for names in report.values() for name in names]
    assert called and len(missed) + len(called & set(defs)) == len(defs)
    for path, names in report.items():
        assert path.startswith("src/repro/") and path.endswith(".py")
        lines = [int(name.split()[0]) for name in names]
        assert lines == sorted(lines)
    listing = report.get("src/repro/harness/cli.py", [])
    assert not any(name.endswith(" run_workloads_listing") for name in listing)
    assert any(name.endswith(" run_cluster_command") for name in listing)
