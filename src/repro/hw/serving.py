"""One shared SoC in virtual time: frame prices, the one service queue,
and the multi-session throughput / tail-latency report.

:class:`SocQueue` is the only code that decides when a priced frame runs;
the ``serve`` report, the engine governor and every cluster worker read
it.  Frame ``k`` of a session arriving at ``a`` is requested at
``request_time(a, k, fps)`` and starts at the latest of that request, the
session's previous completion and the moment the SoC is free.  Among the
ready frames the oldest request goes first (ties by admission order), or
the cheapest under ``order="sjf"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.stats import (FrameTimeline, latency_summary, record_frame,
                             request_time)
from ..obs.runtime import current_tracer
from .soc import FrameCost, SoCModel
from .workload import workload_from_stats

__all__ = ["SessionServingStats", "ServingReport", "SocStream", "SocQueue",
           "frame_cost_record", "session_frame_costs", "aggregate_serving"]

ORDERS = ("arrival", "sjf")
DEFAULT_FPS = 30.0  # WorkloadSpec.fps_target's default


@dataclass
class SessionServingStats:
    """One session's share of the serving simulation.

    ``utilization`` is the fraction of the run's makespan this session
    kept the shared SoC busy (``busy_s / makespan_s``); the SoC idles
    between requests, so the utilizations sum to at most 1.0.
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
    timelines: list = field(default_factory=list)  # one per frame


@dataclass
class ServingReport:
    """Aggregate service metrics across every session.

    ``cache`` carries the shared cross-session cache counters of the run
    (``{"references": {hits, misses, evictions, hit_rate, ...}, "fields":
    {...}}``) when the serving harness ran with the workload-layer caches
    attached; ``None`` means uncached serving.

    ``makespan_s`` is the last delivery, so it counts the time the SoC
    idles between requests: it equals the summed busy time only when
    every frame is requested at t = 0.

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
    ttff_mean_s: float  # latency_summary fields
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


@dataclass(eq=False, kw_only=True)
class SocStream:
    """One session's frames on a :class:`SocQueue`: the SoC seconds of
    those known so far (append as frames render; rewrite any not yet
    started) out of ``frames``, and a timeline per served frame."""

    arrival_s: float
    fps: float
    frames: int
    costs: list = field(default_factory=list)
    key: object = None
    ready_s: float = field(default=0.0, init=False)  # previous completion
    timelines: list = field(default_factory=list, init=False)

    @property
    def next_frame(self) -> int:
        """Index of the first unserved frame."""
        return len(self.timelines)

    @property
    def done(self) -> bool:
        """True once every frame has been served."""
        return self.next_frame >= self.frames

    def request_s(self, k: int) -> float:
        """When the session's viewer asks for frame ``k``."""
        return request_time(self.arrival_s, k, self.fps)


class SocQueue:
    """One SoC serving many sessions' frames one at a time (module rule).

    It never guesses: while the frame it would serve next (under ``sjf``,
    any ready frame) has no known cost, it waits, so feeding costs frame
    by frame gives the timelines feeding them up front does.  Step it on
    an event clock (:meth:`poll`, :meth:`start`, :meth:`finish`) or let
    :meth:`drain` serve whatever it can place.
    """

    def __init__(self, order: str = "arrival", started_s: float = 0.0):
        if order not in ORDERS:
            raise ValueError(f"unknown service order {order!r}")
        self.order = order
        self.busy_until_s = float(started_s)  # when the SoC is next free
        self.busy_s = 0.0
        self.current: SocStream | None = None  # whose frame is in flight
        self.streams: list = []  # unfinished, in admission order

    def admit(self, stream: SocStream, bake_s: float = 0.0,
              transfer_s: float = 0.0) -> SocStream:
        """Add a session at its ``arrival_s``.  A bake holds the SoC from
        the later of arrival and its next free moment, and the session's
        frames wait for it; a transfer delays only its first frame."""
        stream.ready_s = stream.arrival_s
        if bake_s > 0.0:
            self.busy_until_s = max(self.busy_until_s,
                                    stream.arrival_s) + bake_s
            self.busy_s += bake_s
            stream.ready_s = self.busy_until_s
        elif transfer_s > 0.0:
            stream.ready_s = stream.arrival_s + transfer_s
        if not stream.done:
            self.streams.append(stream)
        return stream

    def close(self, stream: SocStream) -> None:
        """End a stream after the frames whose costs it has."""
        stream.frames = len(stream.costs)
        if stream.done and stream in self.streams:
            self.streams.remove(stream)

    def _ready_s(self, stream: SocStream) -> float:
        return max(stream.request_s(stream.next_frame), stream.ready_s)

    def poll(self, now_s: float) -> tuple:
        """``("serve", stream)`` when a frame is ready at ``now_s``,
        ``("wait", wake_time_s)`` when every pending frame's request lies
        in the future, else ``("idle", None)``: the SoC is busy, out of
        work, or the next frame's cost is not known yet."""
        if self.busy_until_s > now_s or not self.streams:
            return ("idle", None)
        ready = [s for s in self.streams if self._ready_s(s) <= now_s]
        if not ready:
            return ("wait", min(map(self._ready_s, self.streams)))
        sjf = self.order == "sjf"  # ties go to the earlier admission
        if sjf and any(s.next_frame >= len(s.costs) for s in ready):
            return ("idle", None)
        stream = min(ready, key=lambda s: (
            s.costs[s.next_frame] if sjf else 0.0, s.request_s(s.next_frame)))
        known = stream.next_frame < len(stream.costs)
        return ("serve", stream) if known else ("idle", None)

    def start(self, stream: SocStream, now_s: float) -> float:
        """Begin the stream's next frame at ``now_s``; returns its finish."""
        cost = stream.costs[stream.next_frame]
        self.busy_s += cost
        self.busy_until_s = now_s + cost
        self.current = stream
        return self.busy_until_s

    def finish(self, stream: SocStream, now_s: float) -> FrameTimeline:
        """Record the in-flight frame's delivery; returns its timeline."""
        k = stream.next_frame
        timeline = FrameTimeline(stream.request_s(k),
                                 now_s - stream.costs[k], now_s)
        stream.timelines.append(timeline)
        stream.ready_s = now_s
        self.current = None
        if stream.done:
            self.streams.remove(stream)
        return timeline

    def drain(self) -> list:
        """Serve every frame the rule can place now; returns the
        ``(stream, timeline)`` pairs in service order."""
        placed = []
        while self.streams:
            now_s = max(self.busy_until_s, min(map(self._ready_s,
                                                   self.streams)))
            action, stream = self.poll(now_s)
            if action != "serve":
                break
            placed.append((stream, self.finish(stream,
                                               self.start(stream, now_s))))
        return placed


def aggregate_serving(session_results: dict, soc: SoCModel,
                      variant: str = "cicero",
                      order: str = "arrival",
                      variants: dict | None = None,
                      fps_targets: dict | None = None,
                      cache_stats: dict | None = None) -> ServingReport:
    """Serve many sessions' priced frames on one :class:`SocQueue`, every
    session arriving at t = 0.

    Parameters
    ----------
    session_results:
        ``{session_id: SparwSequenceResult}`` in admission order — the
        engine's per-session outputs (or any solo pipeline results).
    soc:
        Hardware model to price frames on.
    variant:
        SoC variant to price under (see :data:`repro.hw.soc.VARIANTS`).
    order:
        ``"arrival"`` (the round-robin engine's) or ``"sjf"`` (the deadline
        scheduler's: cheapest ready frame first, minimising mean delay).
    variants:
        Optional ``{session_id: variant}`` overrides for heterogeneous
        workload mixes (each session priced under its spec's variant);
        sessions absent from the dict fall back to ``variant``.
    fps_targets:
        Optional ``{session_id: fps}`` request rates; sessions absent
        from the dict request at :data:`DEFAULT_FPS`.
    cache_stats:
        Optional shared-cache counters (from
        :func:`repro.workloads.cache.cache_report`) to attach to the
        report.
    """
    queue = SocQueue(order)
    variants, fps_targets = variants or {}, fps_targets or {}
    frame_costs, streams = {}, {}
    for sid, result in session_results.items():
        costs = session_frame_costs(result, soc, variants.get(sid, variant))
        frame_costs[sid] = costs
        streams[sid] = queue.admit(SocStream(
            arrival_s=0.0, fps=fps_targets.get(sid, DEFAULT_FPS),
            frames=len(costs), costs=[c.time_s for c in costs], key=sid))

    # Observability hooks (read-only: instrumentation records the same
    # timelines the report is built from, never changes them).
    tracer = current_tracer()
    if tracer is not None:
        soc_pid = tracer.process("soc")
        for sid in streams:  # session lanes in session order
            tracer.thread(soc_pid, sid)
    for stream, timeline in queue.drain():
        record_frame(timeline, "serve", "soc", stream.key,
                     stream.next_frame - 1)

    makespan = queue.busy_until_s
    per_session = []
    for sid, result in session_results.items():
        stream = streams[sid]
        latency = latency_summary([(0.0, stream.timelines)])
        busy = float(sum(stream.costs))
        per_session.append(SessionServingStats(
            session_id=sid,
            frames=stream.frames,
            references=result.num_references,
            busy_s=busy,
            solo_fps=stream.frames / busy if busy > 0 else 0.0,
            mean_latency_s=latency["mean_latency_s"],
            p95_latency_s=latency["p95_latency_s"],
            utilization=busy / makespan if makespan > 0 else 0.0,
            energy_j=float(sum(c.energy_j for c in frame_costs[sid])),
            timelines=stream.timelines,
        ))

    total_frames = sum(s.frames for s in per_session)
    return ServingReport(
        num_sessions=len(per_session),
        total_frames=total_frames,
        makespan_s=makespan,
        aggregate_fps=total_frames / makespan if makespan > 0 else 0.0,
        **latency_summary((0.0, s.timelines) for s in per_session),
        total_energy_j=sum(s.energy_j for s in per_session),
        per_session=per_session,
        cache=cache_stats,
    )
