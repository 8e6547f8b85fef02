"""Summary statistics, and the one definition of a frame's latency (a
:class:`FrameTimeline` per frame, summarised by :func:`latency_summary`)
that ``serve``, the cluster simulator, the engine governor and the load
generator share, so a measured summary and a predicted one can be diffed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..obs.runtime import current_tracer, metric_inc, metric_observe

__all__ = ["percentile_or_zero", "mean_or_zero", "FrameTimeline",
           "request_time", "time_to_first_frame", "latency_summary",
           "LATENCY_KEYS", "in_ms", "record_frame"]


def percentile_or_zero(values, q: float) -> float:
    """Empty-safe percentile: latency tails of a run that served nothing."""
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def mean_or_zero(values) -> float:
    """Empty-safe arithmetic mean (reporting counterpart of the above)."""
    values = list(values)
    return float(np.mean(values)) if values else 0.0


class FrameTimeline(NamedTuple):
    """One delivered frame: requested, service started, delivered (s)."""

    request_s: float
    start_s: float
    finish_s: float

    @property
    def latency_s(self) -> float:
        """Request to delivery; a frame delivered early reads 0."""
        return max(self.finish_s - self.request_s, 0.0)


def request_time(arrival_s: float, k: int, fps: float) -> float:
    """When an open-loop viewer arriving at ``arrival_s`` asks for frame k."""
    return arrival_s + k / fps


def time_to_first_frame(arrival_s: float, timelines) -> float:
    """First delivery minus arrival (0 before the first frame)."""
    return max(timelines[0].finish_s - arrival_s, 0.0) if timelines else 0.0


def latency_summary(sessions) -> dict:
    """TTFF mean/p95 and mean/p50/p95/p99/worst latency (s) of
    ``(arrival_s, timelines)`` pairs, pooling frames in the order given."""
    latencies, ttff = [], []
    for arrival_s, timelines in sessions:
        latencies.extend(t.latency_s for t in timelines)
        if timelines:
            ttff.append(time_to_first_frame(arrival_s, timelines))
    return {
        "ttff_mean_s": mean_or_zero(ttff),
        "ttff_p95_s": percentile_or_zero(ttff, 95),
        "mean_latency_s": mean_or_zero(latencies),
        "p50_latency_s": percentile_or_zero(latencies, 50),
        "p95_latency_s": percentile_or_zero(latencies, 95),
        "p99_latency_s": percentile_or_zero(latencies, 99),
        "worst_latency_s": max(latencies, default=0.0),
    }


LATENCY_KEYS = tuple(latency_summary(()))


def in_ms(summary: dict) -> dict:
    """A :func:`latency_summary` keyed and scaled as ``*_ms``."""
    return {key[:-2] + "_ms": value * 1e3 for key, value in summary.items()}


def record_frame(timeline: FrameTimeline, prefix: str, lane: str,
                 session_id: str, frame: int) -> None:
    """Count ``<prefix>.frames``, sample ``<prefix>.frame_latency_s`` and
    draw ``frame.wait`` (request to start) and ``frame.serve`` (start to
    delivery) on the session's thread of process ``lane``, into whatever
    observation is active (read-only)."""
    latency_s = timeline.latency_s
    metric_inc(f"{prefix}.frames")
    metric_observe(f"{prefix}.frame_latency_s", latency_s)
    tracer = current_tracer()
    if tracer is None:
        return
    pid = tracer.process(lane)
    tid = tracer.thread(pid, session_id)
    args = {"session": session_id, "frame": frame,
            "latency_ms": latency_s * 1e3}
    tracer.complete("frame.wait", "frame", timeline.request_s * 1e6,
                    (timeline.start_s - timeline.request_s) * 1e6, pid, tid,
                    args=args)
    tracer.complete("frame.serve", "frame", timeline.start_s * 1e6,
                    (timeline.finish_s - timeline.start_s) * 1e6, pid, tid,
                    args=args)
