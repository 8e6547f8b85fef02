"""Diff two ``BENCH_perf.json`` artifacts and flag regressions.

The benchmarking workflow is: every ``cli bench`` run persists
``BENCH_perf.json`` (rows + environment fingerprint); this tool compares
a *candidate* artifact against a *baseline* one, kernel by kernel, and
exits non-zero when any kernel slowed down beyond the threshold — the
contract CI and reviewers hold perf work to.

Usable as a module (:func:`compare_payloads`) or from a shell::

    python compare_bench.py old/BENCH_perf.json new/BENCH_perf.json
    python compare_bench.py --threshold 1.10 old.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..harness.reporting import SCHEMA_VERSION, format_table

__all__ = ["compare_payloads", "load_artifact", "main"]

# A kernel is flagged only when it slows down by more than this factor:
# wall-clock microbenchmarks jitter a few percent run-to-run, so a 25%
# default separates noise from real regressions at CI scale.
DEFAULT_THRESHOLD = 1.25


def load_artifact(path: str | Path) -> dict:
    """Read one ``BENCH_perf.json``; raises ``ValueError`` on bad shape.

    Artifacts written under a different ``schema_version`` (including
    pre-versioned ones that only carry v1's ``"schema"`` key) are
    refused outright: a cross-version ratio would silently compare
    fields that moved, so the caller gets a clear regenerate-me error
    instead of a ``KeyError`` deep in the diff.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ValueError(f"{path}: not a BENCH_*.json payload (no rows)")
    version = payload.get("schema_version", payload.get("schema"))
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema_version {version!r} does not match "
            f"this tool (expected {SCHEMA_VERSION}); regenerate it with "
            "the current 'cli bench'")
    return payload


def _by_kernel(payload: dict) -> dict:
    rows = payload.get("rows") or []
    named = {}
    for row in rows:
        kernel = row.get("kernel")
        if kernel is not None:
            named[kernel] = row
    return named


def compare_payloads(baseline: dict, candidate: dict,
                     threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare two bench payloads; returns rows + regression verdicts.

    Returns ``{"rows": [...], "regressions": [...], "only_baseline":
    [...], "only_candidate": [...]}`` where each row carries the old/new
    ns/op and the ratio ``new / old`` (> 1 means slower).  A kernel
    regresses when its ratio exceeds ``threshold``.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    old_rows = _by_kernel(baseline)
    new_rows = _by_kernel(candidate)
    rows, regressions = [], []
    for kernel in [k for k in old_rows if k in new_rows]:
        old_ns = float(old_rows[kernel].get("ns_per_op", 0.0))
        new_ns = float(new_rows[kernel].get("ns_per_op", 0.0))
        ratio = new_ns / old_ns if old_ns > 0 else float("inf")
        # Rows measured on different backends are not the same
        # experiment — report the ratio but never flag it as a
        # regression (rerun both sides on one backend to gate on it).
        old_backend = old_rows[kernel].get("backend")
        new_backend = new_rows[kernel].get("backend")
        mismatched = (old_backend is not None and new_backend is not None
                      and old_backend != new_backend)
        regressed = ratio > threshold and not mismatched
        rows.append({
            "kernel": kernel,
            "baseline_ns_per_op": old_ns,
            "candidate_ns_per_op": new_ns,
            "ratio": ratio,
            "verdict": ("backend-changed" if mismatched
                        else "REGRESSED" if regressed
                        else "improved" if ratio < 1.0 else "ok"),
        })
        if regressed:
            regressions.append(kernel)
    return {
        "rows": rows,
        "regressions": regressions,
        "only_baseline": [k for k in old_rows if k not in new_rows],
        "only_candidate": [k for k in new_rows if k not in old_rows],
    }


def main(argv: list | None = None) -> int:
    """CLI entry point: print the diff table, exit 1 on regressions."""
    parser = argparse.ArgumentParser(
        prog="compare_bench",
        description="Diff two BENCH_perf.json artifacts; non-zero exit "
                    "when a kernel regressed beyond the threshold.")
    parser.add_argument("baseline", help="baseline BENCH_perf.json")
    parser.add_argument("candidate", help="candidate BENCH_perf.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="slowdown ratio that counts as a regression "
                             f"(default {DEFAULT_THRESHOLD:.2f} = +25%%)")
    args = parser.parse_args(argv)
    try:
        baseline = load_artifact(args.baseline)
        candidate = load_artifact(args.candidate)
        result = compare_payloads(baseline, candidate,
                                  threshold=args.threshold)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"compare_bench: {exc}", file=sys.stderr)
        return 2

    print(format_table(result["rows"],
                       title=f"bench diff (threshold {args.threshold:.2f}x)"))
    for side in ("only_baseline", "only_candidate"):
        if result[side]:
            print(f"\n{side.replace('_', ' ')}: "
                  + ", ".join(result[side]))
    if result["regressions"]:
        print(f"\nREGRESSIONS: {', '.join(result['regressions'])}",
              file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
