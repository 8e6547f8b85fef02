"""``run.py --compare A B``: two sets of this benchmark's output files.

``A`` is the base, ``B`` the candidate.  Each is one output file (one
run) or a directory of them.  For every (workload, end-to-end metric) it prints both medians
and quartiles and a verdict from the bound ``BENCHMARK.json`` fixes:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread exceeds the bound and the two
  sets interleave (neither has every run better than every run of the
  other), so no verdict can be trusted;
* ``ok`` — otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from e2e_common import load_contract, quartiles


def load_runs(path) -> list:
    """Untraced run records found at ``path`` (a file or a directory)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        run = json.loads(file.read_text())
        # Chrome traces share the directory; traced runs hold other metrics.
        if isinstance(run, dict) and "workload" in run \
                and not run.get("trace") and not run.get("skipped"):
            runs.append(run)
    return runs


def values_by_key(runs: list, names: set) -> dict:
    """``{(workload, metric): [value per run]}`` for the named metrics."""
    out: dict = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            if name in names:
                out.setdefault((run["workload"], name), []).append(
                    float(entry["value"]))
    return out


def verdict(base: list, cand: list, better: str, bound: float) -> tuple:
    """``(verdict, worse_by, spread)`` for one (workload, metric)."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if better == "lower":
        separated = max(cand) < min(base) or min(cand) > max(base)
    else:
        separated = min(cand) > max(base) or max(cand) < min(base)
    if spread > bound and not separated:
        return "unresolved", worse_by, spread
    return ("worse" if worse_by > bound else "ok"), worse_by, spread


def compare(path_a, path_b) -> int:
    """Print the comparison table; returns 1 if any row reads ``worse``."""
    end_to_end = {m["name"]: m for m in load_contract()["end_to_end"]}
    base = values_by_key(load_runs(path_a), set(end_to_end))
    cand = values_by_key(load_runs(path_b), set(end_to_end))
    header = (f"{'workload':<12} {'metric':<14} {'unit':<9} "
              f"{'A median [q1, q3] (n)':<36} {'B median [q1, q3] (n)':<36} "
              f"{'B vs A':>8} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worst = 0
    for key in sorted(set(base) | set(cand)):
        workload, name = key
        metric = end_to_end[name]
        if key not in base or key not in cand:
            print(f"{workload:<12} {name:<14} only in "
                  f"{'A' if key in base else 'B'}")
            continue

        def cell(values):
            q1, med, q3 = quartiles(values)
            return f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})"

        result, worse_by, spread = verdict(base[key], cand[key],
                                           metric["better"], metric["bound"])
        worst |= result == "worse"
        print(f"{workload:<12} {name:<14} {metric['unit']:<9} "
              f"{cell(base[key]):<36} {cell(cand[key]):<36} "
              f"{worse_by:>+8.1%} {spread:>7.1%} {metric['bound']:>6.0%}"
              f"  {result}")
    print("B vs A: positive = B worse, as a share of A's median "
          "(the base of every ratio is A).")
    return int(worst)
