"""SoC workers: one multi-session engine + reference cache + frame queue.

A :class:`Worker` is the cluster's unit of capacity.  Admitting a session
renders its sequence through the worker's own
:class:`~repro.engine.MultiSessionEngine` — against the worker-local
reference cache, so co-located sessions of the same workload share
reference renders — and prices every frame on the worker's SoC with
:func:`~repro.hw.serving.session_frame_costs`.  The priced frames then
flow through the virtual-time frame queue: each session requests frame
``k`` at :func:`~repro.metrics.stats.request_time` (the open-loop
stream a real viewer generates), frames are served one at a time in order
per session, and the worker picks the oldest ready request first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import MultiSessionEngine
from ..hw.serving import session_frame_costs
from ..hw.soc import SoCModel
from ..metrics.stats import FrameTimeline, request_time
from ..workloads import REFERENCE_CACHE, SharedLRUCache

__all__ = ["PlacedSession", "Worker"]


@dataclass
class PlacedSession:
    """One admitted session's serving state on its worker."""

    session_id: str
    spec: object
    worker_id: str
    arrival_s: float
    frame_costs: list
    fps_target: float
    frame_energies: list = field(default_factory=list)
    references: int = 0
    next_frame: int = 0
    last_completion_s: float = 0.0
    timelines: list = field(default_factory=list)  # one per served frame
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

    @property
    def done(self) -> bool:
        """True once every frame of the session has been served."""
        return self.next_frame >= len(self.frame_costs)


class Worker:
    """One SoC's slice of the fleet: engine, reference cache, frame queue."""

    def __init__(self, worker_id: str, config,
                 started_s: float = 0.0, index: int = 0,
                 use_cache: bool = True, field_store=None):
        self.worker_id = str(worker_id)
        self.config = config
        self.soc = SoCModel(feature_dim=config.feature_dim)
        # The cache object always exists so stats report uniformly; with
        # use_cache=False it is simply never attached to the engine.  It
        # is bounded like the process-wide REFERENCE_CACHE.
        self.reference_cache = SharedLRUCache(
            name=f"{self.worker_id}/references",
            max_entries=REFERENCE_CACHE.max_entries,
            max_bytes=REFERENCE_CACHE.max_bytes)
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
        self.sessions: list = []  # resident (unfinished) PlacedSessions
        self.completed: list = []
        self.current: PlacedSession | None = None  # frame in flight
        self.busy_s = 0.0
        self.busy_until_s = float(started_s)
        self.frames_served = 0
        self.energy_served_j = 0.0
        self.sessions_admitted = 0

    # -- state -------------------------------------------------------------------

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

    def _render(self, session_id: str, spec, level: int, poses=None):
        """Render (a slice of) a session's sequence on this worker's engine.

        Rendering goes through this worker's engine with the worker-local
        reference cache attached, so sessions sharing the spec's
        ``cache_key`` reuse each other's reference renders — the signal
        cache-affinity placement optimises for — and with the run's
        render memo, which only saves host time: it answers repeated NeRF
        requests and target frames (both keyed by the session's
        ``render_key``, whatever spec drew them) and trajectories (see
        :meth:`WorkloadSpec.build_session
        <repro.workloads.WorkloadSpec.build_session>`).  ``level`` picks
        the quality-ladder rung; ``poses`` restricts to a trajectory
        slice (mid-serve retunes re-render only the remaining frames).
        """
        engine_session = spec.build_session(session_id, self.config,
                                            level=level, poses=poses,
                                            memo=self.render_memo)
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
            session_id=session_id, spec=spec, worker_id=self.worker_id,
            arrival_s=float(now_s),
            frame_costs=[c.time_s for c in costs],
            frame_energies=[c.energy_j for c in costs],
            fps_target=spec.fps_target,
            references=engine_session.result.num_references,
            last_completion_s=float(now_s),
            level=int(level), frame_levels=[int(level)] * len(costs),
            frame_refs=[r.new_reference
                        for r in engine_session.result.records],
            fetch_kind=fetch_kind, fetch_s=float(fetch_s))
        if fetch_kind == "bake":
            # Baking consumes this worker's capacity (it cannot serve
            # frames meanwhile); the session's frames unlock when the
            # bake lands.  The simulator schedules a wake at that time.
            ready = max(self.busy_until_s, float(now_s)) + fetch_s
            self.busy_s += fetch_s
            self.busy_until_s = ready
            placed.last_completion_s = ready
        elif fetch_s > 0.0:
            # A transfer delays only this session's first frame; the
            # worker stays free to serve other residents.
            placed.last_completion_s = float(now_s) + fetch_s
        if placed.done:  # zero-frame sequence: nothing to serve
            self.completed.append(placed)
        else:
            self.sessions.append(placed)
        self.sessions_admitted += 1
        return placed

    # -- governor retuning (mid-serve quality switches) ---------------------------

    def retune_session(self, placed: PlacedSession, level: int) -> int:
        """Re-render a resident session's remaining frames at a new rung.

        Frames already served (and the frame currently in flight, if this
        session owns it) keep their recorded costs and levels; everything
        after is re-rendered at ``level`` through the worker's engine —
        the re-render starts with a fresh reference, so the quality
        switch pays a realistic keyframe cost.  Returns the number of
        frames retuned (0 means nothing left to change).
        """
        start = placed.next_frame
        if self.current is placed:  # don't reprice an in-flight frame
            start += 1
        total = len(placed.frame_costs)
        if level == placed.level or start >= total:
            return 0
        # Any frames/seed overrides were already folded into the placed
        # spec at arrival time; the ladder never changes the trajectory,
        # so the original poses slice cleanly.
        poses = placed.spec.build_poses(self.config,
                                        self.render_memo)[:total][start:]
        engine_session = self._render(
            f"{placed.session_id}/l{level}@{start}", placed.spec, level,
            poses=poses)
        costs = session_frame_costs(engine_session.result, self.soc,
                                    placed.spec.variant)
        refs = [r.new_reference for r in engine_session.result.records]
        # The discarded tail's references leave the accounting with it.
        placed.references += sum(refs) - sum(placed.frame_refs[start:])
        placed.frame_costs[start:] = [c.time_s for c in costs]
        placed.frame_energies[start:] = [c.energy_j for c in costs]
        placed.frame_levels[start:] = [int(level)] * len(costs)
        placed.frame_refs[start:] = refs
        placed.level = int(level)
        placed.transitions += 1
        return len(costs)

    # -- frame service (driven by the simulator's event loop) --------------------

    def poll(self, now_s: float) -> tuple:
        """What this worker should do at ``now_s``.

        Returns ``("serve", session)`` when a frame is ready (oldest
        request first, ties by session id), ``("wait", wake_time_s)``
        when every pending frame's request lies in the future, or
        ``("idle", None)`` when busy, retired, or out of work.
        """
        if not self.live or self.busy_until_s > now_s or not self.sessions:
            return ("idle", None)
        ready_now = []
        earliest_future = None
        for session in self.sessions:
            # Ready once requested and the previous frame is done.
            request_s = request_time(session.arrival_s, session.next_frame,
                                     session.fps_target)
            ready = max(request_s, session.last_completion_s)
            if ready <= now_s:
                ready_now.append((request_s, session.session_id, session))
            elif earliest_future is None or ready < earliest_future:
                earliest_future = ready
        if ready_now:
            return ("serve", min(ready_now)[2])
        return ("wait", earliest_future)

    def start_frame(self, session: PlacedSession, now_s: float) -> float:
        """Begin serving the session's next frame; returns completion time."""
        cost = session.frame_costs[session.next_frame]
        completion = now_s + cost
        self.busy_s += cost
        self.busy_until_s = completion
        self.current = session
        return completion

    def finish_frame(self, session: PlacedSession,
                     now_s: float) -> FrameTimeline:
        """Record a frame completion; returns the frame's timeline."""
        k = session.next_frame
        timeline = FrameTimeline(
            request_time(session.arrival_s, k, session.fps_target),
            now_s - session.frame_costs[k], now_s)
        session.timelines.append(timeline)
        session.last_completion_s = now_s
        session.next_frame += 1
        self.frames_served += 1
        self.energy_served_j += session.frame_energies[k]
        self.current = None
        if session.done:
            self.sessions.remove(session)
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
            "sessions": self.sessions_admitted,
            "frames": self.frames_served,
            "busy_s": self.busy_s,
            "energy_j": self.energy_served_j,
            "utilization": (self.busy_s / lifetime_s
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
