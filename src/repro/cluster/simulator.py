"""Event-driven open-loop cluster simulation over many SoC workers.

The simulator owns a shared virtual clock and a single event heap:
arrivals enter from an arrival schedule, admission bounds per-worker
queue depth, a placement policy picks the worker, and each worker serves
its sessions' frame streams one priced frame at a time (costs from
:func:`~repro.hw.serving.session_frame_costs` on the worker's SoC).  An
optional autoscaler grows/shrinks the fleet between events.

Everything is deterministic: the only randomness lives in the seeded
arrival schedule, events at equal times order by a fixed kind priority
then insertion sequence, and rendering itself is bit-deterministic — so
one seed reproduces an identical :class:`ClusterReport`.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..control import QualityGovernor, start_level
from ..metrics.stats import (LATENCY_KEYS, in_ms, latency_summary,
                             mean_or_zero, record_frame, time_to_first_frame)
from ..obs.runtime import (current_tracer, metric_inc, metric_observe,
                           metric_set)
from ..workloads.cache import (RENDER_MEMO_ENTRIES, SharedLRUCache,
                               make_render_memo, record_render_memo)
from .admission import REJECT_QUEUE_FULL, AdmissionController
from .arrivals import make_arrivals
from .autoscale import Autoscaler
from .placement import make_placement
from .worker import Worker

__all__ = ["ClusterReport", "ClusterSimulator", "simulate_cluster"]

# Equal-time event ordering: a booted worker becomes placeable before the
# frame/arrival work at that instant, completions free workers before new
# arrivals are placed, and wakes run last (they only re-poll).
_P_WORKER_UP = 0
_P_FRAME_DONE = 1
_P_ARRIVAL = 2
_P_WAKE = 3


@dataclass
class ClusterReport:
    """Cluster-wide service metrics of one simulated run (JSON-able)."""

    placement: str
    arrivals: str
    seed: int
    queue_limit: int
    workers_initial: int
    workers_final: int
    arrivals_total: int
    admitted: int
    rejected: int
    reject_rate: float
    reject_reasons: dict
    completed_sessions: int
    total_frames: int
    total_references: int
    makespan_s: float
    aggregate_fps: float
    ttff_mean_s: float
    ttff_p95_s: float
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    worst_latency_s: float
    mean_utilization: float
    total_busy_s: float
    total_energy_j: float
    ref_cache_hits: int
    ref_cache_misses: int
    ref_cache_hit_rate: float
    per_worker: list = field(default_factory=list)
    scale_events: list = field(default_factory=list)
    # Quality-governor accounting (defaults describe an ungoverned run).
    governor: str = "off"
    overflow_admissions: int = 0
    tier_transitions: int = 0
    mean_quality_level: float = 0.0
    quality_by_level: dict = field(default_factory=dict)
    governor_events: list = field(default_factory=list)
    # Sharded-field-tier accounting (repro.distribution): flat scalars —
    # catalog size, per-tier hit counters, hierarchy hit rate, and the
    # TTFF bake/transfer/queue split.  Empty on un-sharded runs so the
    # report (and its goldens) keeps its exact legacy shape.
    distribution: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Flat aggregate row for tables and ``BENCH_cluster.json``."""
        out = {
            "arrivals": self.arrivals,
            "placement": self.placement,
            "seed": self.seed,
            "workers_initial": self.workers_initial,
            "workers_final": self.workers_final,
            "arrivals_total": self.arrivals_total,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "reject_rate": self.reject_rate,
            "reject_queue_full": self.reject_reasons.get("queue_full", 0),
            "reject_no_workers": self.reject_reasons.get("no_workers", 0),
            "completed_sessions": self.completed_sessions,
            "total_frames": self.total_frames,
            "makespan_s": self.makespan_s,
            "aggregate_fps": self.aggregate_fps,
            **in_ms({key: getattr(self, key) for key in LATENCY_KEYS}),
            "mean_utilization": self.mean_utilization,
            "total_busy_s": self.total_busy_s,
            "total_energy_j": self.total_energy_j,
            "joules_per_frame": (self.total_energy_j / self.total_frames
                                 if self.total_frames else 0.0),
            "ref_cache_hits": self.ref_cache_hits,
            "ref_cache_misses": self.ref_cache_misses,
            "ref_cache_hit_rate": self.ref_cache_hit_rate,
            "scale_ups": sum(1 for e in self.scale_events
                             if e["action"] == "up_completed"),
            "scale_downs": sum(1 for e in self.scale_events
                               if e["action"] == "down"),
            "governor": self.governor,
            "overflow_admissions": self.overflow_admissions,
            "tier_transitions": self.tier_transitions,
            "mean_quality_level": self.mean_quality_level,
        }
        if self.distribution:
            out.update(self.distribution)
        return out


class ClusterSimulator:
    """Deterministic discrete-event fleet of :class:`~.worker.Worker`\\ s.

    ``governor`` (``"static"`` or ``"adaptive"``; ``"off"`` attaches
    none) bends quality before the admission controller breaks: worker
    pressure maps to a degraded admission level, SLO-violating residents
    are retuned at frame boundaries, and when every worker sits at the
    queue limit the least-loaded one's residents are degraded and the
    newcomer is admitted at its deepest allowed rung into a bounded
    overflow slot (half the queue limit, at least one) instead of being
    rejected.  Latency targets come from each workload's own
    ``slo_latency_s``.
    """

    def __init__(self, config, workers: int = 4,
                 placement: str = "least_loaded", queue_limit: int = 4,
                 frames: int | None = None, seed: int = 0,
                 autoscaler: Autoscaler | None = None,
                 use_cache: bool = True, governor: str = "off",
                 field_store=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        # Optional ShardedFieldStore (repro.distribution): workers pay
        # tiered field-acquisition costs at admission, placement policies
        # with a ``store`` attribute see shard residency, and the report
        # gains the ``distribution`` block.
        self.field_store = field_store
        self.frames = frames
        self.seed = seed  # offsets spec trajectory seeds (with_overrides)
        self.placement = (make_placement(placement)
                          if isinstance(placement, str) else placement)
        if self.field_store is not None and hasattr(self.placement, "store"):
            self.placement.store = self.field_store
        self.admission = AdmissionController(queue_limit)
        self.autoscaler = autoscaler
        self.governor = (QualityGovernor(governor) if governor != "off"
                         else None)
        self.overflow_admissions = 0
        self.governor_events: list = []
        self.use_cache = use_cache
        self.workers: list = []
        # The render memo every worker's engine shares while run() runs.
        self._render_memo = None
        self._worker_seq = 0
        for _ in range(workers):
            self._spawn(0.0)
        self.workers_initial = workers
        self._booting = 0
        self._session_seq = 0
        self._event_seq = 0
        self._heap: list = []
        self._makespan = 0.0

    # -- fleet -------------------------------------------------------------------

    def _spawn(self, now_s: float) -> Worker:
        worker = Worker(f"w{self._worker_seq:02d}", self.config,
                        started_s=now_s, index=self._worker_seq,
                        use_cache=self.use_cache,
                        field_store=self.field_store)
        worker.render_memo = self._render_memo
        self._worker_seq += 1
        self.workers.append(worker)
        if self.field_store is not None:
            self.field_store.register_worker(worker.worker_id)
        return worker

    def _live(self) -> list:
        return [w for w in self.workers if w.live]

    # -- event machinery ---------------------------------------------------------

    def _push(self, time_s: float, priority: int, kind: str, payload) -> None:
        heapq.heappush(self._heap,
                       (time_s, priority, self._event_seq, kind, payload))
        self._event_seq += 1

    def _dispatch(self, worker: Worker, now_s: float) -> None:
        """Re-poll a worker's queue; start a frame or schedule a wake (a
        retired worker has no residents, so it idles)."""
        action, payload = worker.queue.poll(now_s)
        if action == "serve":
            completion = worker.queue.start(payload, now_s)
            self._push(completion, _P_FRAME_DONE, "frame_done",
                       (worker, payload))
        elif action == "wait":
            self._push(payload, _P_WAKE, "wake", worker)

    def _autoscale(self, now_s: float) -> None:
        if self.autoscaler is None:
            return
        decision = self.autoscaler.evaluate(now_s, self._live(),
                                            self._booting)
        if decision is None:
            return
        action, payload = decision
        if action == "up":
            self._booting += 1
            self._push(payload, _P_WORKER_UP, "worker_up", None)
            metric_inc("cluster.scale_up_requests")
            self._control_instant("scale.up_requested", "cluster", now_s,
                                  "autoscaler", {"ready_s": payload})
        else:
            payload.retire(now_s)
            if self.field_store is not None:
                # Deterministic rebalance: the retiree's replicas vanish
                # and surviving owners take over lazily on next miss.
                self.field_store.remove_worker(payload.worker_id)
            metric_inc("cluster.scale_downs")
            metric_set("cluster.workers", len(self._live()))
            self._control_instant("scale.down", "cluster", now_s,
                                  "autoscaler", {"worker": payload.worker_id})

    def _on_arrival(self, now_s: float, arrival) -> None:
        # Overrides change the spec's content hash, so placement and the
        # worker must both see the same effective spec.
        spec = arrival.spec.with_overrides(frames=self.frames,
                                           seed_offset=self.seed)
        metric_inc("cluster.arrivals")
        self._control_instant("cluster.arrival", "cluster", now_s,
                              "arrivals", {"spec": spec.name})
        eligible, reason = self.admission.eligible(self._live())
        if reason == REJECT_QUEUE_FULL and self.governor is not None:
            # Graceful shedding: degrade the least-loaded worker's
            # residents and take the newcomer into an overflow slot at
            # its deepest allowed rung, instead of rejecting it.
            worker = self.overflow_target(self._live())
            if worker is not None:
                self._shed(worker, now_s)
                self._admit(worker, spec, now_s,
                            level=spec.max_quality_level,
                            action="overflow_admit")
                return
        if reason is not None:
            self.admission.record_reject(reason)
            metric_inc("cluster.rejected")
            self._control_instant("cluster.reject", "cluster", now_s,
                                  "arrivals",
                                  {"spec": spec.name, "reason": reason})
            return
        worker = self.placement.choose(spec.cache_key(self.config), eligible)
        level = (self.admission_level(spec, worker)
                 if self.governor is not None else 0)
        self._admit(worker, spec, now_s, level=level,
                    action="degraded_admit" if level else None)

    def _admit(self, worker: Worker, spec, now_s: float, level: int,
               action: str | None) -> None:
        session_id = f"a{self._session_seq:04d}-{spec.name}"
        self._session_seq += 1
        metric_inc("cluster.admitted")
        self._control_instant("cluster.admit", "cluster", now_s, "arrivals",
                              {"session": session_id,
                               "worker": worker.worker_id, "level": level})
        tracer = current_tracer()
        if tracer is not None:
            pid = tracer.process(f"worker {worker.worker_id}")
            tracer.instant("cluster.place", "cluster", now_s * 1e6, pid,
                           tracer.thread(pid, session_id),
                           args={"session": session_id, "level": level})
        with self._worker_scope(worker, now_s):
            placed = worker.admit(session_id, spec, now_s, level=level)
        if placed.fetch_kind == "bake":
            # A cold bake leaves the worker busy with no frame in
            # flight; without this wake nothing would re-poll it once
            # the heap drains.  (Transfers keep the worker free, so the
            # ordinary dispatch below schedules their wake.)
            self._push(worker.busy_until_s, _P_WAKE, "wake", worker)
            self._control_instant(
                "field.bake", "field", now_s, "field",
                {"session": session_id, "bake_s": placed.fetch_s})
        elif placed.fetch_s > 0.0:
            self._control_instant(
                "field.transfer", "field", now_s, "field",
                {"session": session_id, "transfer_s": placed.fetch_s})
        self.admission.record_admit()
        if self.governor is not None:
            self.governor.register(session_id, spec.slo_latency_s,
                                   spec.max_quality_level, level=level)
            if action is not None:
                self._governor_event(now_s, action, session_id, worker,
                                     level)
        self._dispatch(worker, now_s)

    def admission_level(self, spec, worker: Worker) -> int:
        """Ladder rung a newcomer lands on, from the worker's pressure.

        Empty workers admit at full quality; a worker at the queue limit
        admits at the spec's deepest allowed rung; loads in between map
        linearly.  ``static`` mode always pins the deepest rung.
        """
        max_level = spec.max_quality_level
        if self.governor.mode != "adaptive" or max_level == 0:
            return start_level(self.governor.mode, max_level)
        pressure = worker.load / self.admission.queue_limit
        return min(max_level, int(pressure * (max_level + 1)))

    def overflow_target(self, workers: list) -> Worker | None:
        """Worker to shed onto when the whole fleet is at its queue limit.

        Least-loaded worker with a free overflow slot (ties by id), or
        ``None`` when overflow capacity is exhausted too — only then does
        the admission controller reject.
        """
        if self.governor.mode != "adaptive":
            return None
        limit = self.admission.queue_limit
        cap = limit + max(1, limit // 2)  # the overflow slots
        open_workers = [w for w in workers if w.load < cap]
        if not open_workers:
            return None
        self.overflow_admissions += 1
        return min(open_workers, key=lambda w: (w.load, w.worker_id))

    def _shed(self, worker: Worker, now_s: float) -> None:
        """Degrade every retunable resident of ``worker`` by one rung."""
        for placed in list(worker.sessions):
            target = min(placed.level + 1, placed.spec.max_quality_level)
            if target == placed.level:
                continue
            with self._worker_scope(worker, now_s):
                retuned = worker.retune_session(placed, target)
            if retuned:
                self.governor.pin(placed.session_id, target)
                self._governor_event(now_s, "shed_degrade",
                                     placed.session_id, worker, target)

    def _governor_event(self, now_s: float, action: str, session_id: str,
                        worker: Worker, level: int) -> None:
        self.governor_events.append({
            "t": now_s, "action": action, "session": session_id,
            "worker": worker.worker_id, "level": level})
        metric_inc("governor.cluster_events")
        self._control_instant(f"governor.{action}", "governor", now_s,
                              "governor",
                              {"session": session_id,
                               "worker": worker.worker_id, "level": level})

    # -- observability ----------------------------------------------------------
    #
    # All read-only: instants/spans on the virtual clock plus counter,
    # gauge and histogram bumps through the repro.obs.runtime helpers.
    # Every hook is a None check when nothing is active, and nothing here
    # feeds back into scheduling, so traced runs stay bit-identical to
    # untraced runs (tests/obs/test_obs_parity.py).

    def _control_instant(self, name: str, cat: str, now_s: float,
                         thread: str, args: dict | None = None) -> None:
        tracer = current_tracer()
        if tracer is None:
            return
        pid = tracer.process("cluster")
        tracer.instant(name, cat, now_s * 1e6, pid,
                       tracer.thread(pid, thread), args=args)

    def _worker_scope(self, worker: Worker, now_s: float):
        """Context routing engine trace spans into the worker's lane."""
        tracer = current_tracer()
        if tracer is None:
            return nullcontext()
        return tracer.scope(f"worker {worker.worker_id}",
                            base_us=now_s * 1e6)

    # -- run ---------------------------------------------------------------------

    def run(self, arrivals: list, label: str = "trace") -> ClusterReport:
        """Play an arrival schedule to completion; returns the report.

        The report records the constructor's ``seed`` (the one that
        offset the specs), so a run is replayable from its own report.

        Every worker's engine renders through one render memo that lives
        exactly as long as this call: a render is a pure function of
        its renderer and rays, and sessions of one spec are bit-identical
        by construction (every arrival gets the run's seed offset), so
        each distinct ``(render_key, rays)`` NeRF request is evaluated,
        each distinct ``(render_key, reference pose, target pose)`` SPARW
        target frame warped, and each spec's trajectory built once per
        run — catalog variants and specs that differ only in pricing
        share the first two.  The memo changes host time only — the
        report, the trace's modelled spans and the workers' reference
        cache statistics are those of a run without it.
        """
        metric_set("cluster.workers", len(self._live()))
        # Both names resolve in this module at run time.
        memo = make_render_memo(SharedLRUCache, RENDER_MEMO_ENTRIES)
        self._set_render_memo(memo)
        try:
            self._play(arrivals)
        finally:
            self._set_render_memo(None)
        record_render_memo(memo, "cluster")
        return self._report(label)

    def _set_render_memo(self, memo) -> None:
        self._render_memo = memo
        for worker in self.workers:
            worker.render_memo = memo

    def _play(self, arrivals: list) -> None:
        """Run the event loop over an arrival schedule until it drains."""
        for arrival in sorted(arrivals, key=lambda a: a.time_s):
            self._push(arrival.time_s, _P_ARRIVAL, "arrival", arrival)
        while self._heap:
            now_s, _, _, kind, payload = heapq.heappop(self._heap)
            if kind == "arrival":
                self._on_arrival(now_s, payload)
                self._autoscale(now_s)
            elif kind == "frame_done":
                worker, session = payload
                timeline = worker.finish_frame(session, now_s)
                k = len(session.timelines) - 1
                record_frame(timeline, "cluster", f"worker {worker.worker_id}",
                             session.session_id, k)
                if k == 0:
                    metric_observe("cluster.ttff_s", time_to_first_frame(
                        session.arrival_s, session.timelines))
                self._makespan = max(self._makespan, now_s)
                if self.governor is not None and not session.done:
                    old_level = session.level
                    new_level = self.governor.observe(
                        session.session_id, timeline.latency_s)
                    if new_level is not None:
                        with self._worker_scope(worker, now_s):
                            retuned = worker.retune_session(session,
                                                            new_level)
                        if retuned:
                            self._governor_event(
                                now_s,
                                "degrade" if new_level > old_level else
                                "recover", session.session_id, worker,
                                new_level)
                self._dispatch(worker, now_s)
                self._autoscale(now_s)
            elif kind == "worker_up":
                self._booting -= 1
                worker = self._spawn(now_s)
                self.autoscaler.record_up_completed(now_s,
                                                    len(self._live()))
                metric_inc("cluster.scale_ups")
                metric_set("cluster.workers", len(self._live()))
                self._control_instant("scale.up_completed", "cluster",
                                      now_s, "autoscaler",
                                      {"worker": worker.worker_id})
            else:  # wake
                self._dispatch(payload, now_s)

    # -- reporting ---------------------------------------------------------------

    def _report(self, label: str) -> ClusterReport:
        placed_sessions = [s for w in self.workers
                           for s in (w.completed + w.sessions)]
        makespan = self._makespan
        per_worker = [w.stats_row(makespan) for w in self.workers]
        total_frames = sum(w.frames_served for w in self.workers)
        hits = sum(w.reference_cache.stats.hits for w in self.workers)
        misses = sum(w.reference_cache.stats.misses for w in self.workers)
        lookups = hits + misses
        stats = self.admission.stats
        scale_events = ([{"t": e.time_s, "action": e.action,
                          "workers": e.workers}
                         for e in self.autoscaler.events]
                        if self.autoscaler is not None else [])
        # Frame-weighted quality accounting: which ladder rung every
        # served frame rendered at, bucketed per workload name.
        quality_by_level: dict = {}
        level_frames = level_sum = 0
        for session in placed_sessions:
            buckets = quality_by_level.setdefault(session.spec.name, {})
            for level in session.frame_levels:
                buckets[level] = buckets.get(level, 0) + 1
                level_frames += 1
                level_sum += level
        distribution: dict = {}
        if self.field_store is not None:
            store = self.field_store
            served = [s for s in placed_sessions if s.timelines]
            # TTFF decomposition: the acquisition cost each session paid
            # (bake or transfer) vs everything else (queueing + first
            # frame's own service time).
            bake = [s.fetch_s if s.fetch_kind == "bake" else 0.0
                    for s in served]
            transfer = [s.fetch_s if s.fetch_kind == "shard" else 0.0
                        for s in served]
            queue = [time_to_first_frame(s.arrival_s, s.timelines)
                     - s.fetch_s for s in served]
            distribution = {
                "catalog": store.catalog_size,
                "zipf_s": (store.zipf_s
                           if store.zipf_s is not None else 0.0),
                **store.stats(),
                "ttff_bake_mean_ms": mean_or_zero(bake) * 1e3,
                "ttff_transfer_mean_ms": mean_or_zero(transfer) * 1e3,
                "ttff_queue_mean_ms": mean_or_zero(queue) * 1e3,
            }
        return ClusterReport(
            placement=self.placement.name,
            arrivals=label,
            seed=self.seed,
            queue_limit=self.admission.queue_limit,
            workers_initial=self.workers_initial,
            workers_final=len(self._live()),
            arrivals_total=stats.arrivals,
            admitted=stats.admitted,
            rejected=stats.rejected,
            reject_rate=stats.reject_rate,
            reject_reasons=dict(stats.rejected_by_reason),
            completed_sessions=sum(len(w.completed) for w in self.workers),
            total_frames=total_frames,
            total_references=sum(s.references for s in placed_sessions),
            makespan_s=makespan,
            aggregate_fps=total_frames / makespan if makespan > 0 else 0.0,
            **latency_summary((s.arrival_s, s.timelines)
                              for s in placed_sessions),
            mean_utilization=mean_or_zero([row["utilization"]
                                           for row in per_worker]),
            total_busy_s=sum(w.queue.busy_s for w in self.workers),
            total_energy_j=sum(w.energy_served_j for w in self.workers),
            ref_cache_hits=hits,
            ref_cache_misses=misses,
            ref_cache_hit_rate=hits / lookups if lookups else 0.0,
            per_worker=per_worker,
            scale_events=scale_events,
            governor=(self.governor.mode if self.governor is not None
                      else "off"),
            overflow_admissions=self.overflow_admissions,
            tier_transitions=sum(s.transitions for s in placed_sessions),
            mean_quality_level=(level_sum / level_frames
                                if level_frames else 0.0),
            quality_by_level=quality_by_level,
            governor_events=list(self.governor_events),
            distribution=distribution,
        )


def simulate_cluster(mix, config, arrivals: str = "poisson",
                     rate_hz: float = 1.0, duration_s: float = 10.0,
                     seed: int = 0, workers: int = 4,
                     placement: str = "least_loaded", queue_limit: int = 4,
                     frames: int | None = None,
                     autoscaler: Autoscaler | None = None,
                     use_cache: bool = True,
                     governor: str = "off",
                     catalog: int | None = None,
                     zipf: float | None = None,
                     replication: int | None = None) -> ClusterReport:
    """One-call cluster run: generate arrivals, simulate, report.

    ``mix`` is any serve mix (``"vr-lego:3,dolly-chair"`` or ``(spec,
    count)`` pairs); ``arrivals`` picks the process.  ``seed`` drives
    the arrival schedule *and* offsets the specs' trajectory seeds.
    ``governor`` attaches the SLO quality governor (``"static"`` or
    ``"adaptive"``), which reads exactly one SLO source — the specs (a
    caller overriding it rewrites the mix with
    :func:`repro.workloads.apply_slo` first).  Same arguments, same seed,
    same report — bit for bit.

    ``catalog`` switches on the sharded field tier: the mix expands into
    that many variant identities (each draws its base's pixels) under a
    ``zipf``-skewed
    popularity law (seeded from ``seed``), served through a
    :class:`~repro.distribution.ShardedFieldStore` with ``replication``
    replicas per baked field; ``ClusterReport.distribution`` reports the
    tier it ran.
    """
    field_store = None
    if catalog is not None:
        from ..distribution import expand_field_serving
        mix, field_store = expand_field_serving(
            mix, config, catalog, zipf=zipf, replication=replication,
            seed=seed)
    elif zipf is not None or replication is not None:
        raise ValueError("zipf/replication require catalog "
                         "(the sharded field tier)")
    schedule = make_arrivals(arrivals, mix, rate_hz=rate_hz,
                             duration_s=duration_s, seed=seed)
    simulator = ClusterSimulator(config, workers=workers,
                                 placement=placement,
                                 queue_limit=queue_limit, frames=frames,
                                 seed=seed, autoscaler=autoscaler,
                                 use_cache=use_cache,
                                 governor=governor,
                                 field_store=field_store)
    return simulator.run(schedule, label=arrivals)
