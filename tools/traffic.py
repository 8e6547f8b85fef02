#!/usr/bin/env python
"""Which library functions the project's own traffic never calls.

    python tools/traffic.py

Runs the traffic the project ships, in this process and under a trace
hook, and prints the ``src/repro`` functions that none of it called,
grouped by file.  The traffic is:

* the CI smoke commands, plus the flag variants they leave out (deadline
  scheduler, ray budget, static and adaptive governors, ``--no-cache``,
  diurnal and deterministic arrivals, autoscaling with and without the
  shard tier, round-robin placement, a ``--catalog 80`` fleet with and
  without the shard tier);
* ``frontier``, both checked-in experiment tables, a self-hosted
  ``loadgen``, ``reconcile`` on its artifact and ``trace analyze``;
* every ``examples/*.py``;
* every ``benchmarks/e2e`` workload at ``--smoke`` scale, two of them
  traced.

A function listed here is reached by nothing but tests.  It stays only
in one of the keep categories ``docs/architecture.md`` ("What the library
keeps") names: a CLI choice or error path, an oracle a test compares
against, surface the frozen e2e driver pins, or a seam a test passes a
fake or a smaller bound through.

What it cannot see: code that runs in another process.  Forked pool
workers (``--backend parallel``) render in children, and the live e2e
workloads start ``serve-live`` as a subprocess; the self-hosted
``loadgen`` run covers the server in-process.  A full run takes several
minutes on 2 vCPUs; every run in it must exit 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LIBRARY = REPO_ROOT / "src" / "repro"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def library_defs() -> dict:
    """``(file, first line, name)`` -> ``"line qualname"`` per function
    of ``src/repro``; the first line is a decorator's, as in the code
    object."""
    found = {}
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            names, owner = [node.name], owners.get(node)
            while owner is not None:
                if isinstance(owner, (ast.ClassDef, *DEFS)):
                    names.insert(0, owner.name)
                owner = owners.get(owner)
            first = min([node.lineno]
                        + [each.lineno for each in node.decorator_list])
            found[(str(path), first, node.name)] = (
                f"{node.lineno} {'.'.join(names)}")
    return found


def record(commands) -> set:
    """Run each ``(label, thunk)`` under a trace hook; return the
    ``(file, first line, name)`` of every library function called.

    A thunk returns its exit code, and a non-zero one raises: traffic
    that fails reaches code no working run does.
    """
    called, library = set(), str(LIBRARY)

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(library):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None  # no per-line tracing

    for label, thunk in commands:
        previous = sys.gettrace(), threading.gettrace()
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = thunk()
        finally:
            sys.settrace(previous[0])
            threading.settrace(previous[1])
        if code:
            raise SystemExit(f"traffic: {label} exited {code}")
        print(f"ran {label}", file=sys.stderr)
    return called


def uncalled(called: set) -> dict:
    """Relative file -> the ``"line qualname"`` of each function in it
    that ``called`` misses, in source order."""
    report: dict = {}
    for key, name in library_defs().items():
        if key not in called:
            path = str(Path(key[0]).relative_to(REPO_ROOT))
            report.setdefault(path, []).append(name)
    for names in report.values():
        names.sort(key=lambda name: int(name.split()[0]))
    return report


def cli(*argv):
    """A thunk running ``python -m repro.harness.cli ARGV``.

    The import happens inside the thunk, so the first run also records
    what importing the library calls.
    """
    def run():
        from repro.harness.cli import main
        return main(list(argv))
    return " ".join(argv), run


def _example(path: Path):
    def run():
        runpy.run_path(str(path), run_name="__main__")
        return 0
    return f"examples/{path.name}", run


def _e2e(workload: str, out: Path, trace: bool = False):
    def run():
        spec = importlib.util.spec_from_file_location(
            "e2e_run", REPO_ROOT / "benchmarks" / "e2e" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(["--workload", workload, "--seed", "3", "--smoke",
                            "--trace", str(int(trace)), "--out", str(out)])
    return f"e2e {workload}{' (traced)' if trace else ''}", run


def commands(out: Path) -> list:
    """The traffic: ``(label, thunk)`` per run, artifacts under ``out``."""
    mix = ("dolly-chair,orbit-ngp,orbit-tensorf,preview-ship,"
           "sparse-ignatius,vr-headshake,vr-lego,walk-materials")
    fleet = ("--rate", "10", "--duration", "10", "--workers", "4",
             "--queue-limit", "10", "--frames", "2", "--seed", "7")
    quick = str(REPO_ROOT / "examples" / "experiments" / "quick.json")
    frontier = str(REPO_ROOT / "examples" / "experiments"
                   / "frontier-fast.json")
    trace = str(out / "cluster.trace.json")

    def resume():
        for name in ("cells/BENCH_quick_cell001.json",
                     "cells/BENCH_quick_cell003.json",
                     "BENCH_experiment.json"):
            (out / "quick" / name).unlink()
        return cli("experiment", "--table", quick, "--out",
                   str(out / "quick"), "--resume")[1]()

    runs = [
        cli("workloads"),
        cli("all", "--fast", "--json-out", str(out)),
        cli("serve", "--sessions", "8", "--fast", "--json-out", str(out)),
        cli("serve", "--fast", "--frames", "6", "--workload", "vr-lego:3",
            "--workload", "vr-headshake", "--workload", "dolly-chair:2",
            "--workload", "orbit-ngp", "--json-out", str(out)),
        cli("cluster", "--fast", "--arrivals", "poisson", "--rate", "1.5",
            "--duration", "8", "--workers", "3", "--placement",
            "cache_affinity", "--frames", "3", "--seed", "0",
            "--json-out", str(out)),
        cli("frontier", "--fast", "--frames", "2", "--duration", "0.4",
            "--rates", "10,30,90", "--slo", "3000", "--workers", "1",
            "--queue-limit", "2", "--json-out", str(out)),
        cli("serve", "--fast", "--frames", "4", "--seed", "0", "--workload",
            "vr-lego:2", "--workload", "dolly-chair", "--backend",
            "parallel", "--engine-workers", "2", "--json-out", str(out),
            "--trace", str(out / "serve.trace.json")),
        cli("cluster", "--fast", "--workload", "vr-lego:3,dolly-chair:2",
            "--arrivals", "poisson", "--rate", "6", "--duration", "4",
            "--workers", "1", "--queue-limit", "2", "--frames", "6",
            "--governor", "adaptive", "--slo", "30", "--seed", "7",
            "--json-out", str(out), "--trace", trace),
        cli("trace", "analyze", trace, "--top", "10"),
        cli("serve", "--fast", "--sessions", "4", "--frames", "3", "--seed",
            "7", "--no-cache", "--json-out", str(out)),
        cli("loadgen", "--fast", "--rate", "3", "--duration", "2", "--seed",
            "7", "--frames", "3", "--time-scale", "0.2", "--json-out",
            str(out)),
        cli("reconcile", "--input", str(out / "BENCH_realserve.json"),
            "--json-out", str(out)),
        cli("loadgen", "--fast", "--governor", "static", "--slo", "30",
            "--rate", "3", "--duration", "1", "--seed", "7", "--frames", "3",
            "--time-scale", "0.2", "--json-out", str(out / "static")),
        cli("experiment", "--table", quick, "--out", str(out / "quick")),
        ("experiment --resume", resume),
        cli("experiment", "--table", frontier, "--out",
            str(out / "frontier")),
        cli("cluster", "--fast", "--workload", mix, "--catalog", "80",
            "--zipf", "1.3", "--replication", "2", "--placement",
            "shard_affinity", "--arrivals", "poisson", *fleet,
            "--json-out", str(out)),
        cli("cluster", "--fast", "--workload", mix, "--catalog", "80",
            "--zipf", "1.3", "--replication", "0", "--placement",
            "least_loaded", "--arrivals", "poisson", *fleet,
            "--json-out", str(out)),
        # Flag variants the CI smoke leaves out.
        cli("serve", "--fast", "--sessions", "4", "--frames", "4",
            "--scheduler", "deadline"),
        cli("serve", "--fast", "--sessions", "4", "--frames", "4",
            "--ray-budget", "2000", "--governor", "adaptive", "--slo", "60"),
        cli("serve", "--fast", "--sessions", "160", "--frames", "8",
            "--governor", "adaptive", "--slo", "200"),  # sessions retune
        cli("serve", "--fast", "--frames", "3", "--workload",
            "walk-materials", "--governor", "static"),
        cli("cluster", "--fast", "--arrivals", "diurnal", "--rate", "3",
            "--duration", "4", "--frames", "2", "--json-out", str(out)),
        cli("cluster", "--fast", "--arrivals", "deterministic", "--rate",
            "2", "--duration", "3", "--frames", "2", "--placement",
            "round_robin", "--json-out", str(out)),
        cli("cluster", "--fast", "--autoscale", "--workers", "1",
            "--min-workers", "1", "--max-workers", "3", "--rate", "8",
            "--duration", "3", "--frames", "2", "--json-out", str(out)),
        cli("cluster", "--fast", "--workload", "vr-lego,dolly-chair",
            "--catalog", "8", "--autoscale", "--workers", "2",
            "--max-workers", "4", "--rate", "8", "--duration", "3",
            "--frames", "2", "--json-out", str(out)),  # scales down
    ]
    runs += [_example(path)
             for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    runs += [_e2e(workload, out / "e2e")
             for workload in ("solo_sparw", "solo_dense", "serve_mix",
                              "serve_par2", "live_closed", "live_open",
                              "cluster_sim")]
    runs += [_e2e("solo_sparw", out / "e2e", trace=True),
             _e2e("cluster_sim", out / "e2e", trace=True)]
    return runs


def main() -> int:
    """Record the traffic and print what it never called, by file."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as out:
        previous = os.getcwd()
        os.chdir(out)  # whatever a run writes by default lands here
        try:
            called = record(commands(Path(out)))
        finally:
            os.chdir(previous)
    report = uncalled(called)
    total = len(library_defs())
    missed = sum(len(names) for names in report.values())
    print(f"{missed} of {total} src/repro functions never called")
    for path, names in sorted(report.items()):
        print(f"\n{path}")
        print("\n".join(f"  {name}" for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
