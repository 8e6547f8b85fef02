#!/usr/bin/env python
"""Project a directory of e2e benchmark output files into one history summary.

``benchmarks/e2e/run.py --out DIR`` writes one JSON file per run into a
git-ignored directory; this command keeps what a trajectory needs — per
workload x end-to-end metric the median, quartiles and run count, the
host the runs came from, the revision, a label — as one small strict-JSON
file under ``benchmarks/history/``::

    python tools/bench_history.py RUNS_DIR --label pr16

It also carries ``solo_sparw / solo_dense`` ``frames_per_s`` (the paper's
software-only speedup on this host): one ratio per pair of runs sharing a
seed, then median and quartiles of those ratios.  Statistics are the e2e
benchmark's own (``statistics.quantiles(n=4)``), imported from it.

``--trajectory`` reads the checked-in pairs instead (``prN-parent.json``
measured interleaved with ``prN.json``) and chains them: per workload x
end-to-end metric, the product of every pair's change / parent median
ratio, oldest pair first.  Absolute medians move 20-55 % between host
phases on identical code; within a pair both sides share the phase, so
the chained figure ("x since the first pair's parent") does not::

    python tools/bench_history.py --trajectory
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

from e2e_common import load_contract, quartiles  # noqa: E402
from e2e_compare import load_runs, values_by_key  # noqa: E402

SCHEMA = 1
RATIO = ("solo_sparw", "solo_dense", "frames_per_s")
RATIO_KEY = "solo_sparw/solo_dense frames_per_s"


def cell(values: list) -> dict:
    """``{median, q1, q3, n}`` of one sample, at six significant digits."""
    q1, med, q3 = (float(f"{q:.6g}") for q in quartiles(values))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def paired_ratio(runs: list) -> dict | None:
    """Quartiles of numerator / denominator over runs paired by seed."""
    numerator, denominator, metric = RATIO
    by_seed: dict = {}
    for run in runs:
        if run["workload"] in (numerator, denominator):
            by_seed.setdefault(run["seed"], {}).setdefault(
                run["workload"], []).append(run["metrics"][metric]["value"])
    ratios = [top / bottom
              for sides in by_seed.values() if len(sides) == 2
              for top, bottom in zip(sides[numerator], sides[denominator])]
    return cell(ratios) if ratios else None


def summarise(runs: list, label: str) -> dict:
    """The history summary of one set of untraced e2e runs."""
    contract = load_contract()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    values = values_by_key(runs, set(units))
    workloads: dict = {}
    for (workload, metric), sample in sorted(values.items()):
        workloads.setdefault(workload, {})[metric] = {
            **cell(sample), "unit": units[metric]}
    revisions = {run.get("git_revision") for run in runs}
    hosts = [run["host"] for run in runs]
    fingerprint = dict(hosts[0]["fingerprint"])
    fingerprint.pop("git_revision", None)
    ratio = paired_ratio(runs)
    return {
        "schema": SCHEMA,
        "label": label,
        "source": "measured",
        # None when the measured tree was not a checkout (a PR measures
        # its own files before the commit that will hold them exists).
        "git_revision": revisions.pop() if len(revisions) == 1 else None,
        "host": {
            **fingerprint,
            "calib_ms_median": statistics.median(
                (h["calib_before_ms"] + h["calib_after_ms"]) / 2.0
                for h in hosts),
            "loadavg1_median": statistics.median(h["loadavg1"]
                                                 for h in hosts),
        },
        "seeds": sorted({run["seed"] for run in runs}),
        "run_seconds": sorted({run["seconds"] for run in runs}),
        "failed": sum(run["failed"] for run in runs),
        "workloads": workloads,
        "ratios": {RATIO_KEY: ratio} if ratio else {},
    }


def strict_load(path: Path) -> dict:
    """A history file, refusing ``NaN`` / ``Infinity``."""
    def reject(token):
        raise ValueError(f"{path.name}: non-finite JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def history_pairs(history_dir: Path = HISTORY_DIR) -> list:
    """``(label, parent, change)`` of every checked-in pair, oldest first."""
    pairs = []
    for parent_path in history_dir.glob("pr*-parent.json"):
        label = parent_path.name[:-len("-parent.json")]
        change_path = history_dir / f"{label}.json"
        if change_path.exists():
            pairs.append((int(label[2:]), label, strict_load(parent_path),
                          strict_load(change_path)))
    return [(label, parent, change)
            for _, label, parent, change in sorted(pairs)]


def trajectory(pairs: list) -> dict:
    """Per ``(workload, metric)``: each pair's change / parent median ratio
    (``{label: ratio}``, in pair order) and their product."""
    chains: dict = {}
    for label, parent, change in pairs:
        for workload, metrics in change["workloads"].items():
            for metric, cell in metrics.items():
                base = parent["workloads"].get(workload, {}).get(metric)
                if base is None:  # a workload the parent did not run yet
                    continue
                chain = chains.setdefault((workload, metric),
                                          {"ratios": {}, "chained": 1.0})
                ratio = cell["median"] / base["median"]
                chain["ratios"][label] = ratio
                chain["chained"] *= ratio
    return chains


def print_trajectory(pairs: list) -> None:
    """The chained table: one row per workload x metric."""
    labels = [label for label, _, _ in pairs]
    print(f"x since {labels[0]}-parent, chained over "
          f"{len(labels)} pairs: {' '.join(labels)}")
    print(f"{'workload':12s} {'metric':14s} {'chained':>8s}  per pair")
    for (workload, metric), chain in sorted(trajectory(pairs).items()):
        links = " ".join(f"{chain['ratios'].get(label, float('nan')):.2f}"
                         for label in labels)
        print(f"{workload:12s} {metric:14s} {chain['chained']:7.3f}x  "
              f"{links}")


def main(argv=None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?",
                        help="directory of run.py output files")
    parser.add_argument("--label", help="names the summary (and its file)")
    parser.add_argument("--out", help="default benchmarks/history/LABEL.json")
    parser.add_argument("--trajectory", action="store_true",
                        help="chain the checked-in pairs instead")
    args = parser.parse_args(argv)
    if args.trajectory:
        pairs = history_pairs()
        if not pairs:
            parser.error(f"no prN-parent.json / prN.json pair in "
                         f"{HISTORY_DIR}")
        print_trajectory(pairs)
        return 0
    if args.runs is None or args.label is None:
        parser.error("RUNS and --label are required without --trajectory")
    runs = load_runs(args.runs)
    if not runs:
        parser.error(f"no untraced e2e run files under {args.runs}")
    summary = summarise(runs, args.label)
    out = Path(args.out) if args.out else HISTORY_DIR / f"{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, allow_nan=False) + "\n")
    print(f"wrote {out}: {len(runs)} runs, "
          f"{sum(len(m) for m in summary['workloads'].values())} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
