"""End-to-end benchmark of the Cicero reproduction (see README.md here).

    python benchmarks/e2e/run.py --workload NAME --seed S [--seconds N]
                                 [--trace [0|1]] [--out DIR] [--smoke]
    python benchmarks/e2e/run.py --compare A B

Without ``--workload`` every workload runs, each in a process of its own
(so ``setup_s`` and ``peak_rss_mb`` stay per-workload facts).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) that ``BENCHMARK.json`` declares.  The
exit code is non-zero on a correctness failure.
"""

from __future__ import annotations

import time

PROCESS_START_S = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parents[1] / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"error: the program under test is not at {SRC_DIR / 'repro'}; "
             "run this from a checkout of the whole repository")
for entry in (str(BENCH_DIR), str(SRC_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e_common import (  # noqa: E402
    WorkloadResult,
    calibration_probe_ms,
    host_block,
    load_contract,
    stop_child_processes,
)

BATCH_WORKLOADS = ("solo_sparw", "solo_dense", "serve_mix", "serve_par2",
                   "cluster_sim")
LIVE_WORKLOADS = ("live_closed", "live_open")
DEFAULT_OUT = Path("bench-artifacts") / "e2e"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> WorkloadResult:
    """Dispatch one workload (imports the program under test on demand)."""
    if name in BATCH_WORKLOADS:
        from e2e_batch import run_batch_workload as runner
    elif name in LIVE_WORKLOADS:
        from e2e_live import run_live_workload as runner
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return runner(name, seed, seconds, trace, smoke, PROCESS_START_S)


def declared_metrics(result: WorkloadResult, contract: dict,
                     trace: bool) -> dict:
    """Exactly the declared metrics of this mode, as ``{name: {value, unit}}``.

    A per-layer metric a workload does not exercise reads 0; a missing
    end-to-end metric is an error (every workload reports all of them).
    """
    declared = contract["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in declared:
        value = result.metrics.get(metric["name"], 0.0 if trace else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{result.workload}: end-to-end metric "
                               f"{metric['name']!r} was not measured")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    unknown = (set(result.metrics) - {m["name"] for m in declared}
               - {m["name"] for m in contract["end_to_end"]})
    if trace and unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return out


def print_table(result: WorkloadResult, metrics: dict, contract: dict,
                trace: bool) -> None:
    """Every metric by name, with unit, direction, bound and sample count."""
    declared = {m["name"]: m
                for m in contract["per_layer" if trace else "end_to_end"]}
    print(f"\n== {result.workload} ({'per-layer, traced' if trace else 'end-to-end'};"
          f" {result.passes} passes; {result.attempted} operations,"
          f" {result.failed} failed) ==")
    for name, entry in metrics.items():
        if trace and name not in result.metrics:
            continue  # not exercised by this workload (reads 0 in the JSON)
        spec = declared[name]
        bound = f"bound {spec['bound']:.0%}" if "bound" in spec else ""
        n = (f"n={result.samples[name]}" if name in result.samples else "")
        print(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']:<8} "
              f"{spec['better']:<6} {bound:<10} {n}")
    for key, note in result.notes.items():
        print(f"  note {key}: {note}")
    print(f"  digest-of-digests: {result.digest}")


def write_outputs(result: WorkloadResult, metrics: dict, args, host: dict,
                  out_dir: Path) -> Path:
    """One strict-JSON file per run (plus the Chrome trace of a traced run)."""
    from repro.harness.reporting import safe_json_dumps
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{result.workload}-seed{args.seed}-"
            f"{'trace' if args.trace else 'e2e'}{'-smoke' if args.smoke else ''}")
    index = 0
    while (path := out_dir / f"{stem}-{index}.json").exists():
        index += 1
    payload = {
        "schema": 1, "workload": result.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "smoke": args.smoke,
        "git_revision": host["fingerprint"].get("git_revision"),
        "host": host, "passes": result.passes,
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "skipped": result.skipped,
        "digest": result.digest, "metrics": metrics,
        "samples": result.samples, "raw": result.raw, "notes": result.notes,
    }
    path.write_text(safe_json_dumps(payload, indent=1) + "\n")
    if result.spans is not None:
        result.spans.write_chrome_trace(path.with_suffix(".trace.json"))
    return path


def run_one(args, contract: dict) -> int:
    """One workload in this process; returns the exit code."""
    calib_before = calibration_probe_ms()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    if result.skipped:
        print(f"{result.workload}: skipped — {result.skipped}")
        print(json.dumps({"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 0
    calib_after = calibration_probe_ms()
    host = host_block(calib_before, calib_after)
    if args.trace:
        result.metrics.update({
            "host.calib_ms": (calib_before + calib_after) / 2.0,
            "host.loadavg1": host["loadavg1"],
            "host.cpu_count": host["cpu_count"]})
    try:
        metrics = declared_metrics(result, contract, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}; notes: {result.notes}", file=sys.stderr)
        metrics = {}
    else:
        print_table(result, metrics, contract, bool(args.trace))
        path = write_outputs(result, metrics, args, host, Path(args.out))
        print(f"  wrote {path}")
    correct = result.correct and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, contract: dict) -> int:
    """Every workload, each in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in (w["name"] for w in contract["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        try:
            last = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            combined["correct"] = False
            continue
        combined["correct"] &= bool(last["correct"])
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{workload}/{name}": entry
                                    for name, entry in last["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    """Entry point (also imported by the self-tests)."""
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--smoke", action="store_true",
                        help="FAST scale, 2-frame plans (self-tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        from e2e_compare import compare
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    # Registered before the program under test is imported, so it runs after
    # every exit hook of the program (pool shutdown, shared-memory release):
    # no process this run started is alive, or unwaited for, once it exits.
    atexit.register(stop_child_processes)
    # A terminated run unwinds too (server stopped in its ``finally``, pool
    # shut down) instead of dying with its children alive.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
