"""SoC workers: one multi-session engine + reference cache + frame queue.

A :class:`Worker` is the cluster's unit of capacity.  Admitting a session
renders its sequence through the worker's own
:class:`~repro.engine.MultiSessionEngine` — against the worker-local
reference cache, so co-located sessions of the same workload share
reference renders — and prices every frame on the worker's SoC with
:func:`~repro.hw.serving.session_frame_costs`.  The priced frames join
the worker's :class:`~repro.hw.serving.SocQueue`, which the simulator's
event loop steps one frame at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import MultiSessionEngine
from ..hw.serving import SocQueue, SocStream, session_frame_costs
from ..hw.soc import SoCModel
from ..metrics.stats import FrameTimeline
from ..workloads import make_reference_cache

__all__ = ["PlacedSession", "Worker"]


@dataclass(eq=False, kw_only=True)
class PlacedSession(SocStream):
    """One admitted session's serving state: its stream on the worker's
    :class:`~repro.hw.serving.SocQueue` plus what the report needs."""

    session_id: str
    spec: object
    worker_id: str
    frame_energies: list = field(default_factory=list)
    references: int = 0
    # Quality-governor state: current ladder rung, the rung each frame
    # was rendered at, which frames carried a new reference render (so a
    # retune can re-account its tail exactly), and retune count.
    level: int = 0
    frame_levels: list = field(default_factory=list)
    frame_refs: list = field(default_factory=list)
    transitions: int = 0
    # Which cache tier served this session's baked field and what it
    # cost on the virtual clock ("local"/0.0 when no field store is
    # attached) — feeds the report's TTFF bake/transfer/queue split.
    fetch_kind: str = "local"
    fetch_s: float = 0.0


class Worker:
    """One SoC's slice of the fleet: engine, reference cache, frame queue."""

    def __init__(self, worker_id: str, config,
                 started_s: float = 0.0, index: int = 0,
                 use_cache: bool = True, field_store=None):
        self.worker_id = str(worker_id)
        self.config = config
        self.soc = SoCModel(feature_dim=config.feature_dim)
        # The cache object always exists so stats report uniformly; with
        # use_cache=False it is simply never attached to the engine.
        self.reference_cache = make_reference_cache(
            f"{self.worker_id}/references")
        self.use_cache = bool(use_cache)
        # The simulator's per-run render memo (set by ClusterSimulator.run
        # for the run's duration): repeated requests skip the NeRF
        # evaluation, every report number stays the same.
        self.render_memo = None
        # Optional ShardedFieldStore (repro.distribution): admission then
        # pays tiered field-acquisition costs (local / shard transfer /
        # cold bake) before the first frame can be served.
        self.field_store = field_store
        self.started_s = float(started_s)
        self.index = int(index)  # spawn order (worker ids are for display)
        self.retired_s: float | None = None
        self.completed: list = []
        self.queue = SocQueue(started_s=started_s)
        self.frames_served = 0
        self.energy_served_j = 0.0

    # -- state -------------------------------------------------------------------

    @property
    def busy_until_s(self) -> float:
        """When the worker's SoC is next free."""
        return self.queue.busy_until_s

    @property
    def sessions(self) -> list:
        """Resident (unfinished) sessions, in admission order."""
        return self.queue.streams

    @property
    def live(self) -> bool:
        """True while the worker can take and serve sessions."""
        return self.retired_s is None

    @property
    def load(self) -> int:
        """Resident-session count (the admission queue depth)."""
        return len(self.sessions)

    def retire(self, now_s: float) -> None:
        """Take the (idle) worker out of the fleet at ``now_s``."""
        if self.sessions:
            raise RuntimeError(f"cannot retire {self.worker_id!r} with "
                               f"{self.load} resident sessions")
        self.retired_s = float(now_s)

    # -- admission ---------------------------------------------------------------

    def _render(self, session_id: str, spec, level: int, start: int = 0):
        """Render a session's sequence from frame ``start`` on this worker.

        Rendering goes through this worker's engine with the worker-local
        reference cache attached, so sessions sharing the spec's
        ``cache_key`` reuse each other's reference renders — the signal
        cache-affinity placement optimises for — and with the run's
        render memo, which only saves host time: it answers repeated NeRF
        requests and target frames (both keyed by the session's
        ``render_key``, whatever spec drew them) and trajectories (see
        :meth:`WorkloadSpec.build_session
        <repro.workloads.WorkloadSpec.build_session>`).  ``level`` picks
        the quality-ladder rung; ``start`` > 0 renders a retuned tail
        exactly as a switch landing at that frame renders it on the
        engine path.
        """
        engine_session = spec.build_session(session_id, self.config,
                                            level=level,
                                            memo=self.render_memo,
                                            start=start)
        MultiSessionEngine(
            [engine_session],
            reference_cache=(self.reference_cache if self.use_cache
                             else None),
            render_memo=self.render_memo).run()
        return engine_session

    def admit(self, session_id: str, spec, now_s: float,
              level: int = 0) -> PlacedSession:
        """Render + price one session's sequence and enqueue its frames.

        ``level`` is the quality-ladder rung the governor admits the
        session at (0 — the default — is bit-identical to ungoverned
        admission).

        With a field store attached, admission first acquires the spec's
        baked field through the cache hierarchy: a local hit is free, a
        shard-tier transfer delays only this session's first frame, and a
        cold bake additionally *occupies the worker* for the bake — the
        capacity cost that makes duplicated bakes hurt fleet-wide.
        """
        fetch_kind, fetch_s = "local", 0.0
        if self.field_store is not None:
            fetch_kind, fetch_s = self.field_store.acquire(
                self.worker_id, spec, now_s)
        engine_session = self._render(session_id, spec, level)
        costs = session_frame_costs(engine_session.result, self.soc,
                                    spec.variant)
        placed = PlacedSession(
            arrival_s=float(now_s), fps=spec.fps_target, frames=len(costs),
            costs=[c.time_s for c in costs], session_id=session_id,
            spec=spec, worker_id=self.worker_id,
            frame_energies=[c.energy_j for c in costs],
            references=engine_session.result.num_references,
            level=int(level), frame_levels=[int(level)] * len(costs),
            frame_refs=[r.new_reference
                        for r in engine_session.result.records],
            fetch_kind=fetch_kind, fetch_s=float(fetch_s))
        bake = fetch_kind == "bake"  # the simulator wakes us when it lands
        self.queue.admit(placed, bake_s=fetch_s if bake else 0.0,
                         transfer_s=0.0 if bake else fetch_s)
        if placed.done:  # zero-frame sequence: nothing to serve
            self.completed.append(placed)
        return placed

    # -- governor retuning (mid-serve quality switches) ---------------------------

    def retune_session(self, placed: PlacedSession, level: int) -> int:
        """Re-render a resident session's remaining frames at a new rung.

        Frames already served (and the frame currently in flight, if this
        session owns it) keep their recorded costs and levels.  From the
        first unstarted frame on, the session renders what a switch
        landing there renders on the engine path (:meth:`RenderSession.retune
        <repro.engine.RenderSession.retune>`): a fresh pipeline at
        ``level`` that opens with a fresh reference, so the quality
        switch pays a realistic keyframe cost.  Returns the number of
        frames retuned (0 means nothing left to change).
        """
        start = placed.next_frame
        if self.queue.current is placed:  # don't reprice an in-flight frame
            start += 1
        total = placed.frames
        if level == placed.level or start >= total:
            return 0
        engine_session = self._render(
            f"{placed.session_id}/l{level}@{start}", placed.spec, level,
            start=start)
        costs = session_frame_costs(engine_session.result, self.soc,
                                    placed.spec.variant)
        refs = [r.new_reference for r in engine_session.result.records]
        # The discarded tail's references leave the accounting with it.
        placed.references += sum(refs) - sum(placed.frame_refs[start:])
        placed.costs[start:] = [c.time_s for c in costs]
        placed.frame_energies[start:] = [c.energy_j for c in costs]
        placed.frame_levels[start:] = [int(level)] * len(costs)
        placed.frame_refs[start:] = refs
        placed.level = int(level)
        placed.transitions += 1
        return len(costs)

    # -- frame service (driven by the simulator's event loop) --------------------

    def finish_frame(self, session: PlacedSession,
                     now_s: float) -> FrameTimeline:
        """Record a frame completion; returns the frame's timeline."""
        timeline = self.queue.finish(session, now_s)
        self.frames_served += 1
        self.energy_served_j += session.frame_energies[
            session.next_frame - 1]
        if session.done:
            self.completed.append(session)
        return timeline

    # -- reporting ---------------------------------------------------------------

    def stats_row(self, makespan_s: float) -> dict:
        """Per-worker report row.

        Utilization is busy time over the worker's own *lifetime* within
        the run (boot to retirement, or to the run's makespan while
        live), so an autoscaled worker that was busy its whole short
        life reads as saturated rather than diluted by time it did not
        exist.
        """
        cache = self.reference_cache.stats
        end_s = self.retired_s if self.retired_s is not None else makespan_s
        lifetime_s = max(end_s - self.started_s, 0.0)
        row = {
            "worker": self.worker_id,
            "sessions": len(self.completed) + self.load,
            "frames": self.frames_served,
            "busy_s": self.queue.busy_s,
            "energy_j": self.energy_served_j,
            "utilization": (self.queue.busy_s / lifetime_s
                            if lifetime_s > 0 else 0.0),
            "ref_hits": cache.hits,
            "ref_misses": cache.misses,
            "ref_hit_rate": cache.hit_rate,
            "retired": not self.live,
        }
        if self.field_store is not None:
            # Tier counters appear only on sharded runs, so un-sharded
            # reports (and their goldens) keep their exact shape.
            row.update(self.field_store.worker_stats(self.worker_id))
        return row
