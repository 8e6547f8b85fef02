"""Sim-vs-real reconciliation: the paper's virtual clock meets the wall.

Everything upstream of this module predicts serving behaviour on a
virtual clock; the loadgen measures the same mix/rate/seed on the real
one.  :func:`reconcile_report` runs a matched single-worker
``simulate_cluster`` prediction (the live :class:`~.server.FrameServer`
is one shared engine, i.e. one worker) and pairs every measured
wall-clock quantile with its predicted counterpart.  The per-metric
gap table is the headline artifact: a roughly constant ``ratio``
column means the simulator's *shape* is right and only its absolute
time unit (virtual cost units vs wall seconds on this machine) differs;
a ratio that diverges on the tail quantiles flags queueing behaviour
the simulator is not modelling.
"""

from __future__ import annotations

from ..metrics.stats import in_ms, latency_summary

__all__ = ["RECONCILE_METRICS", "reconcile_report"]

# Both sides are latency_summary keyed *_ms (loadgen and ClusterReport).
RECONCILE_METRICS = tuple(in_ms(latency_summary(())))


def reconcile_report(measured: dict, config, use_cache: bool = True,
                     governor: str = "off",
                     slo_fps: float | None = None) -> dict:
    """Pair a loadgen summary with its matched simulator prediction.

    ``measured`` is the summary :func:`~.loadgen.run_loadgen` returned
    (its mix/arrivals/rate/duration/seed/frames fields pin down the
    arrival schedule); the remaining arguments must mirror how the live
    server was configured so the simulated engine renders the same
    sessions.  Returns a strict-JSON dict whose ``rows`` pair every
    measured quantile with the prediction (``gap_ms``,  ``ratio``).
    """
    from ..cluster.simulator import simulate_cluster
    from ..workloads import apply_slo

    report = simulate_cluster(
        apply_slo(measured["mix"], slo_fps), config,
        arrivals=measured["arrivals"],
        rate_hz=measured["rate_hz"],
        duration_s=measured["duration_s"],
        seed=measured["seed"],
        workers=1,  # the live server is one shared engine
        queue_limit=max(measured["sessions_total"], 1),
        frames=measured.get("frames"),
        trace=measured.get("arrival_trace"),
        use_cache=use_cache, governor=governor)
    predicted = report.summary()
    rows = []
    for metric in RECONCILE_METRICS:
        measured_ms = float(measured[metric])
        predicted_ms = float(predicted[metric])
        rows.append({
            "metric": metric,
            "measured_ms": measured_ms,
            "predicted_ms": predicted_ms,
            "gap_ms": measured_ms - predicted_ms,
            "ratio": (measured_ms / predicted_ms
                      if predicted_ms > 0.0 else None),
        })
    return {
        "kind": "reconcile",
        "mix": measured["mix"],
        "arrivals": measured["arrivals"],
        "rate_hz": measured["rate_hz"],
        "duration_s": measured["duration_s"],
        "seed": measured["seed"],
        "frames": measured.get("frames"),
        "time_scale": measured.get("time_scale", 1.0),
        "sessions_measured": measured["sessions_total"],
        "sessions_predicted": predicted["arrivals_total"],
        "frames_measured": measured["frames_total"],
        "frames_predicted": predicted["total_frames"],
        "rows": rows,
    }
