"""Quality-vs-throughput frontier sweep behind ``cli frontier``.

Sweeps offered load (arrival rate) across the governor modes and reports,
per (mode, rate) cell, what the cluster traded: admitted rate, tail frame
latency, and frame-weighted mean probe PSNR.  ``off`` can only queue or
reject, ``static`` buys throughput by pinning every workload at its
minimum tier, and ``adaptive`` walks the frontier between them —
degrading exactly when load demands it.

The sweep is a factorial experiment: every (mode, rate) cell is a
:class:`~.runconfig.RunConfig` executed through
:func:`~.runner.execute_cell`, the same engine behind ``cli experiment``
— so a checked-in table with the same axes reproduces these rows bit for
bit.  Every run shares one seed and mix, so cells differ only in the
knob under study; the rows land in ``BENCH_frontier.json``.
"""

from __future__ import annotations

from ..control import GOVERNOR_MODES
from .configs import DEFAULT, ExperimentConfig
from .runconfig import RunConfig
from .runner import execute_cell

__all__ = ["DEFAULT_FRONTIER_RATES", "SWEEP_DEFAULTS", "run_frontier"]

# Light / saturated / overloaded against the default small fleet: session
# residency is frames/fps_target seconds, so tens of arrivals per second
# are needed before admission queues fill at test scales.
DEFAULT_FRONTIER_RATES = (8.0, 24.0, 72.0)
# Every cell is a short run, so the sweep overrides the cluster fields'
# effective defaults here ('cli frontier --help' quotes these).
SWEEP_DEFAULTS = {"duration_s": 1.0, "frames": 3}


def run_frontier(config: ExperimentConfig = DEFAULT, mix=None,
                 rates=DEFAULT_FRONTIER_RATES,
                 duration_s: float = SWEEP_DEFAULTS["duration_s"],
                 workers: int = 1, placement: str = "least_loaded",
                 queue_limit: int = 2,
                 frames: int | None = SWEEP_DEFAULTS["frames"], seed: int = 0,
                 modes=GOVERNOR_MODES,
                 slo_fps: float | None = None,
                 use_cache: bool = True) -> tuple:
    """Sweep (governor mode x offered load); returns (rows, summary).

    One row per cell: offered/admitted counts, reject rate, p99 frame
    latency, mean quality level, probe mean-PSNR, and the J/frame and
    $/frame economics columns.  The summary pairs each mode's aggregate
    admitted rate with its mean PSNR — the frontier the governor is
    supposed to bend.
    """
    rates = tuple(float(r) for r in rates)
    if not rates or any(r <= 0 for r in rates):
        raise ValueError("rates must be a non-empty tuple of positive "
                         "arrival rates")
    modes = tuple(modes)
    for mode in modes:
        if mode not in GOVERNOR_MODES:
            raise ValueError(f"unknown governor mode {mode!r}; "
                             f"one of {GOVERNOR_MODES}")
    base = RunConfig(
        mode="cluster",
        workloads=mix if isinstance(mix, str) else None,
        arrivals="poisson", duration_s=duration_s, workers=workers,
        placement=placement, queue_limit=queue_limit, frames=frames,
        seed=seed, slo_fps=slo_fps, use_cache=use_cache)
    mix_override = (mix if mix is not None and not isinstance(mix, str)
                    else None)
    rows = []
    mix_label = ""
    per_mode: dict = {}
    for mode in modes:
        for rate in rates:
            cell = base.with_updates(governor=mode, rate_hz=rate,
                                     label=f"governor={mode},rate_hz={rate}")
            result = execute_cell(cell, config=config, mix=mix_override)
            rows.append(result.row)
            mix_label = result.mix_label
            bucket = per_mode.setdefault(mode, {"offered": 0, "admitted": 0,
                                                "psnr_sum": 0.0, "cells": 0})
            bucket["offered"] += result.row["offered"]
            bucket["admitted"] += result.row["admitted"]
            bucket["psnr_sum"] += result.row["mean_psnr"]
            bucket["cells"] += 1
    summary = {
        "mix": mix_label,
        "rates_hz": list(rates),
        "duration_s": duration_s,
        "workers": workers,
        "placement": placement,
        "queue_limit": queue_limit,
        "seed": seed,
        "slo_fps": slo_fps,
        "modes": list(modes),
    }
    for mode, bucket in per_mode.items():
        offered = bucket["offered"]
        summary[f"{mode}_admitted_rate"] = (bucket["admitted"] / offered
                                            if offered else 0.0)
        summary[f"{mode}_mean_psnr"] = bucket["psnr_sum"] / bucket["cells"]
    return rows, summary
