"""Aggregate multi-session throughput model: frames/s and tail latency.

Prices the frames of N concurrent SPARW sessions on one shared SoC and
simulates round-interleaved service: round ``i`` renders every session's
frame ``i`` back to back, so a frame's latency is its completion offset
within the round (its own cost plus queueing behind the sessions served
before it).  Window-boundary frames carry their full-frame reference cost,
which is exactly what the p95 tail captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.stats import FrameTimeline, latency_summary, record_frame
from ..obs.runtime import current_tracer, metric_inc
from .soc import FrameCost, SoCModel
from .workload import workload_from_stats

__all__ = ["SessionServingStats", "ServingReport", "frame_cost_record",
           "session_frame_costs", "aggregate_serving"]


@dataclass
class SessionServingStats:
    """One session's share of the serving simulation.

    ``utilization`` is the fraction of the run's makespan this session
    kept the shared SoC busy (``busy_s / makespan_s``); the per-session
    utilizations sum to 1.0 when the SoC never idles.
    """

    session_id: str
    frames: int
    references: int
    busy_s: float  # SoC time spent on this session's frames
    solo_fps: float  # rate if the session had the SoC to itself
    mean_latency_s: float
    p95_latency_s: float
    utilization: float = 0.0
    energy_j: float = 0.0  # SoC energy spent on this session's frames


@dataclass
class ServingReport:
    """Aggregate service metrics across every session.

    ``cache`` carries the shared cross-session cache counters of the run
    (``{"references": {hits, misses, evictions, hit_rate, ...}, "fields":
    {...}}``) when the serving harness ran with the workload-layer caches
    attached; ``None`` means uncached serving.

    The latency/throughput model is deliberately *cache-blind*: frames
    are priced from their recorded per-frame stats, which are identical
    with and without the cache (the bit-parity contract), so
    ``aggregate_fps``/latency do not move when caching is enabled.  The
    cache's savings show up in the engine's ``nerf_calls``/``total_rays``
    and in the ``cache`` counters, not here.
    """

    num_sessions: int
    total_frames: int
    makespan_s: float
    aggregate_fps: float
    ttff_mean_s: float  # latency_summary fields; sessions arrive at 0
    ttff_p95_s: float
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    worst_latency_s: float
    total_energy_j: float = 0.0
    per_session: list = field(default_factory=list)
    cache: dict | None = None


def frame_cost_record(record, soc: SoCModel, variant: str) -> FrameCost:
    """Full SoC cost (time *and* energy) of one recorded SPARW frame.

    The frame is priced from its recorded sparse-NeRF stats and warp
    work; a frame that rendered a new reference additionally pays the
    full-frame render (local rendering serialises the two paths on the
    shared SoC).  The latency is the signal the quality governor closes
    its loop on; the energy feeds the J/frame run-table columns.
    """
    target = workload_from_stats(record.sparse_stats,
                                 warp_points=record.warp_points)
    cost = soc.price_nerf(target, variant)
    if record.reference_stats is not None:
        reference = workload_from_stats(record.reference_stats)
        cost = cost.merge(soc.price_nerf(reference, variant))
    return cost


def session_frame_costs(result, soc: SoCModel, variant: str) -> list:
    """Per-frame :class:`FrameCost` of one SPARW sequence result."""
    return [frame_cost_record(record, soc, variant)
            for record in result.records]


def aggregate_serving(session_results: dict, soc: SoCModel,
                      variant: str = "cicero",
                      order: str = "arrival",
                      variants: dict | None = None,
                      cache_stats: dict | None = None) -> ServingReport:
    """Simulate interleaved service of many sessions on one SoC.

    Parameters
    ----------
    session_results:
        ``{session_id: SparwSequenceResult}`` — the engine's per-session
        outputs (or any solo pipeline results).
    soc:
        Hardware model to price frames on.
    variant:
        SoC variant to price under (see :data:`repro.hw.soc.VARIANTS`).
    order:
        Within-round service order: ``"arrival"`` keeps dict order (the
        engine's round-robin) or ``"sjf"`` serves cheapest frames first,
        which minimises mean queueing delay (the deadline scheduler's
        latency-oriented counterpart).
    variants:
        Optional ``{session_id: variant}`` overrides for heterogeneous
        workload mixes (each session priced under its spec's variant);
        sessions absent from the dict fall back to ``variant``.
    cache_stats:
        Optional shared-cache counters (from
        :func:`repro.workloads.cache.cache_report`) to attach to the
        report.
    """
    if order not in ("arrival", "sjf"):
        raise ValueError(f"unknown service order {order!r}")
    variants = variants or {}
    frame_costs = {
        sid: session_frame_costs(result, soc, variants.get(sid, variant))
        for sid, result in session_results.items()}
    frame_times = {sid: [c.time_s for c in costs]
                   for sid, costs in frame_costs.items()}

    # Observability hooks (read-only: instrumentation records the same
    # clock/latency values the report is built from, never changes them).
    tracer = current_tracer()
    if tracer is not None:
        soc_pid = tracer.process("soc")
        rounds_tid = tracer.thread(soc_pid, "rounds")
        for sid in frame_times:  # session lanes in session order
            tracer.thread(soc_pid, sid)

    timelines: dict = {sid: [] for sid in frame_times}
    clock = 0.0
    max_frames = max((len(t) for t in frame_times.values()), default=0)
    for i in range(max_frames):
        due = [(sid, times[i]) for sid, times in frame_times.items()
               if i < len(times)]
        if order == "sjf":
            due.sort(key=lambda item: item[1])
        round_start = clock
        for sid, cost in due:
            start = clock
            clock += cost
            timeline = FrameTimeline(round_start, start, clock)
            timelines[sid].append(timeline)
            record_frame(timeline, "serve", "soc", sid, i)
        if tracer is not None and due:
            tracer.complete("serve.round", "engine", round_start * 1e6,
                            (clock - round_start) * 1e6, soc_pid,
                            rounds_tid,
                            args={"round": i, "sessions": len(due)})
        if due:
            metric_inc("serve.rounds")

    per_session = []
    for sid, result in session_results.items():
        times = frame_times[sid]
        latency = latency_summary([(0.0, timelines[sid])])
        busy = float(sum(times))
        per_session.append(SessionServingStats(
            session_id=sid,
            frames=len(times),
            references=result.num_references,
            busy_s=busy,
            solo_fps=len(times) / busy if busy > 0 else 0.0,
            mean_latency_s=latency["mean_latency_s"],
            p95_latency_s=latency["p95_latency_s"],
            utilization=busy / clock if clock > 0 else 0.0,
            energy_j=float(sum(c.energy_j for c in frame_costs[sid])),
        ))

    total_frames = sum(s.frames for s in per_session)
    return ServingReport(
        num_sessions=len(per_session),
        total_frames=total_frames,
        makespan_s=clock,
        aggregate_fps=total_frames / clock if clock > 0 else 0.0,
        **latency_summary((0.0, timelines[sid]) for sid in session_results),
        total_energy_j=sum(s.energy_j for s in per_session),
        per_session=per_session,
        cache=cache_stats,
    )
