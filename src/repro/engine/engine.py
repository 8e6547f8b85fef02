"""The batched multi-session engine: interleave sessions, batch their rays.

Each round the engine collects the pending :class:`RayRequest` of every
runnable session (in scheduler order, optionally capped by a per-round ray
budget), groups the requests by renderer, flattens each group's rays into
one :meth:`~repro.nerf.renderer.NeRFRenderer.render_ray_batch` call — a
single vectorized field evaluation spanning all of that renderer's sessions
— and scatters the outputs back.  Because the batched evaluation is exact,
every session produces frames and work statistics identical to running it
alone through :meth:`SparwRenderer.render_sequence`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..backend import BACKENDS, DEFAULT_WORKERS
from ..obs.runtime import (current_tracer, metric_inc, metric_observe,
                           section)
from ..obs.tracer import WORK_US_PER_RAY
from ..workloads.cache import pose_hash, rays_hash
from .scheduler import RoundRobinScheduler
from .session import RenderSession

__all__ = ["BatchStats", "EngineResult", "MultiSessionEngine", "batch_key"]


def batch_key(renderer) -> tuple:
    """Grouping key for renderers whose ray work can share one evaluation.

    Two sessions may be answered from the same vectorized field query iff
    their renderers would produce identical outputs for the same rays:
    same field and sampler state and same chunk geometry.  Every sampler
    is deterministic, so every renderer has a key.
    """
    sampler = renderer.sampler
    return (id(renderer.field), id(getattr(sampler, "occupancy", None)),
            sampler.num_samples, renderer.chunk_size)


@dataclass
class BatchStats:
    """How much ray work the engine coalesced across sessions.

    ``requests`` counts only requests answered by *rendering* (flattened
    into a batched field evaluation); requests served from the shared
    reference cache — direct hits and same-round coalesced followers —
    are counted in ``cache_hits`` instead, so the total served is
    ``requests + cache_hits``.
    """

    rounds: int = 0
    requests: int = 0  # session-level ray requests actually rendered
    nerf_calls: int = 0  # batched field evaluations issued
    total_rays: int = 0
    max_batch_rays: int = 0
    cache_hits: int = 0  # requests answered from the shared reference cache

    @property
    def requests_per_call(self) -> float:
        """Mean *rendered* requests folded into one field evaluation.

        Cache-served requests are excluded: they measure render work
        avoided entirely, not batching density.
        """
        return self.requests / self.nerf_calls if self.nerf_calls else 0.0

    @property
    def mean_batch_rays(self) -> float:
        """Mean rays per batched field evaluation."""
        return self.total_rays / self.nerf_calls if self.nerf_calls else 0.0


@dataclass
class EngineResult:
    """Per-session sequence results plus engine-level batching statistics."""

    sessions: list = field(default_factory=list)
    batch: BatchStats = field(default_factory=BatchStats)

    @property
    def total_frames(self) -> int:
        """Frames completed across every session."""
        return sum(s.frames_completed for s in self.sessions)


class MultiSessionEngine:
    """Runs N sessions to completion with cross-session ray batching.

    Parameters
    ----------
    sessions:
        The :class:`RenderSession` list to serve.  Session ids must be
        unique.
    scheduler:
        Ordering policy (default round-robin); see
        :mod:`repro.engine.scheduler`.
    ray_budget:
        Optional cap on rays served per round.  Sessions are taken in
        scheduler order until the cap is reached (always at least one), so
        an undersized budget makes the scheduler's priorities visible:
        lagging sessions are served, leading ones wait.  ``None`` serves
        every runnable session each round.
    reference_cache:
        Optional shared :class:`~repro.workloads.cache.SharedLRUCache` of
        full-frame reference render outputs.  Reference requests of
        sessions carrying a content-addressed ``cache_key`` are answered
        from it (and identical requests arriving in the same round share
        one evaluation).  Because rendering is deterministic, cached
        serving is bit-identical to uncached serving.  ``None`` disables
        cross-session reference reuse.
    governor:
        Optional :class:`~repro.control.EngineGovernor`.  When attached,
        each completed frame is reported to it (it may retune a session's
        quality tier mid-stream), and with a ``ray_budget`` the per-round
        budget is split into per-session shares by the governor's weights
        (conserving the total — see
        :func:`~repro.control.governor.split_budget`) instead of served
        as a plain prefix.  ``None`` keeps the engine bit-identical to
        the ungoverned behaviour.
    backend:
        Where rounds render (one of :data:`repro.backend.BACKENDS`;
        ``None`` is ``"numpy"``, in-process).  ``"parallel"`` fans each
        render group's bundles out to the persistent worker pool —
        results stay bit-identical to serial serving because
        per-bundle rendering is exact (see
        :meth:`~repro.nerf.renderer.NeRFRenderer.render_ray_batch`).
    engine_workers:
        Pool size for the ``parallel`` backend (default:
        :data:`repro.backend.DEFAULT_WORKERS`); ignored otherwise.
    render_memo:
        Optional :class:`~repro.workloads.cache.SharedLRUCache` of
        render outputs keyed by ``(session.render_key, rays_hash)``.  A
        request of a session with a ``render_key`` whose rays were
        already rendered by the same renderer — for any session, whatever
        its trajectory seed, variant or SLO — is answered from it instead
        of evaluating the field (serially or on the pool); everything
        else — reference-cache traffic, batching statistics, trace
        spans, delivery order — runs exactly as without it, so the memo
        changes host time only.  Stored outputs are read-only.
        ``None`` (the default) renders every request.
    """

    def __init__(self, sessions: list, scheduler=None,
                 ray_budget: int | None = None, reference_cache=None,
                 governor=None, backend: str | None = None,
                 engine_workers: int | None = None, render_memo=None):
        ids = [s.session_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise ValueError("session ids must be unique")
        if ray_budget is not None and ray_budget < 1:
            raise ValueError("ray_budget must be >= 1")
        if engine_workers is not None and engine_workers < 1:
            raise ValueError("engine_workers must be >= 1")
        if backend is not None and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; one of {BACKENDS}")
        self.sessions = list(sessions)
        self.scheduler = scheduler or RoundRobinScheduler()
        self.ray_budget = ray_budget
        self.reference_cache = reference_cache
        self.governor = governor
        self.backend = backend
        self.engine_workers = engine_workers
        self.render_memo = render_memo
        self._pool = None
        # Trace lane state while a tracer is active (see _trace_setup);
        # None keeps every hook on the no-op fast path.
        self._trace = None
        # Live-serving state (see admit/retire/run_round): admission
        # mutations and round execution synchronise on this lock, so any
        # thread can admit/retire sessions while another is mid-round.
        self._admission = threading.Lock()
        self._round_index = 0
        self.batch = BatchStats()  # cumulative stats across run_round calls

    @contextmanager
    def serving(self):
        """Hold the backend's resources for a span of ``run_round`` calls.

        ``run()`` wraps its whole drain in this; the live frame server's
        engine-host thread enters it once and serves rounds until
        shutdown.  On exit (normal or not) the scratch arenas and
        geometry memos are released — both locally and, for the
        ``parallel`` backend, in every pool worker — so repeated runs
        don't accumulate arenas.
        """
        if self.backend == "parallel":
            from ..backend.parallel import get_pool
            self._pool = get_pool(self.engine_workers or DEFAULT_WORKERS)
        try:
            yield self
        finally:
            self._release_memory()

    def run(self) -> EngineResult:
        """Serve every session to completion; returns the combined result.

        Drains through :meth:`run_round` with the configured backend held
        for the whole run (see :meth:`serving`); the result's batching
        statistics are :attr:`batch`.
        """
        with self.serving():
            if self.governor is not None:
                self.governor.attach(self.sessions)
            self._trace_setup()
            try:
                while any(not s.done for s in self.sessions):
                    self.run_round()
            finally:
                self._trace = None
        return EngineResult(sessions=list(self.sessions), batch=self.batch)

    # -- live admission (the frame server's API) --------------------------------

    def admit(self, session: RenderSession) -> RenderSession:
        """Thread-safely add a session mid-serve (live connections).

        Safe to call from any thread while another thread is inside
        :meth:`run_round`: the admission lands between rounds.  Session
        ids must stay unique across the currently-admitted set.
        """
        with self._admission:
            if any(s.session_id == session.session_id
                   for s in self.sessions):
                raise ValueError(
                    f"session id {session.session_id!r} already admitted")
            self.sessions = [*self.sessions, session]
            if self.governor is not None:
                self.governor.attach([session])
        return session

    def retire(self, session_id: str) -> RenderSession:
        """Thread-safely remove a session mid-serve (connection closed).

        Returns the retired session; raises ``KeyError`` for unknown
        ids.  A retired session simply stops being scheduled — any
        in-flight round that already snapshotted it finishes serving it
        first (rounds and admissions serialise on one lock).
        """
        with self._admission:
            for session in self.sessions:
                if session.session_id == session_id:
                    self.sessions = [s for s in self.sessions
                                     if s is not session]
                    return session
        raise KeyError(f"no admitted session {session_id!r}")

    def run_round(self) -> list:
        """Serve one batched round over the currently-admitted sessions.

        Returns ``[(session, new_records), ...]`` for every served
        session that completed at least one frame this round (records
        are the freshly-appended ``TargetFrameRecord`` objects, in
        order).  Returns ``[]`` when no admitted session is runnable —
        but also for rounds that advance sessions without finishing a
        frame (a mid-sequence reference refresh renders the reference
        one round and the warped frame the next), so poll the sessions'
        ``done`` flags, not this return value, to detect drain
        completion.
        Cumulative batching statistics accrue on :attr:`batch`.  The
        caller owns the :meth:`serving` scope and must call
        ``run_round`` from one thread at a time; ``admit``/``retire``
        may race freely against it.
        """
        with self._admission:
            active = [s for s in self.sessions if not s.done]
            if not active:
                return []
            round_index = self._round_index
            ordered = self.scheduler.order(active, round_index)
            served = self._select(ordered)
            frames_before = [(s, s.result.num_frames) for s in served]
            batch = self.batch
            before = (batch.requests, batch.total_rays, batch.nerf_calls,
                      batch.cache_hits)
            with section("engine.round"):
                self._serve_round(served, batch)
            batch.rounds += 1
            self._round_index += 1
        completed = []
        for session, frames in frames_before:
            records = session.result.records[frames:]
            if self.governor is not None:
                for record in records:
                    self.governor.observe_record(session, record)
            if records:
                completed.append((session, records))
        self._record_round(round_index, len(served), before)
        return completed

    def _record_round(self, round_index: int, sessions: int,
                      before: tuple) -> None:
        """Count one round's batching deltas into the registry and trace.

        Only :meth:`run_round` mutates :attr:`batch`, so reading it here,
        outside the admission lock, sees exactly this round's totals.
        """
        batch = self.batch
        delta = {"requests": batch.requests - before[0],
                 "rays": batch.total_rays - before[1],
                 "nerf_calls": batch.nerf_calls - before[2],
                 "cache_hits": batch.cache_hits - before[3]}
        metric_inc("engine.rounds")
        for key, value in delta.items():
            metric_inc("engine." + key, value)
        metric_observe("engine.round_rays", delta["rays"])
        self._trace_round(round_index, sessions, delta)

    # -- tracing ----------------------------------------------------------------
    #
    # The engine has no clock of its own, so its spans run on a synthetic
    # work clock (1 ray = WORK_US_PER_RAY trace-us) anchored at the
    # enclosing scope's base time — inside a cluster worker that is the
    # admit instant, so engine activity draws as a short burst there.

    def _trace_setup(self) -> None:
        tracer = current_tracer()
        if tracer is None:
            self._trace = None
            return
        pid, base_us = tracer.current_scope()
        self._trace = {
            "tracer": tracer,
            "pid": pid,
            "rounds_tid": tracer.thread(pid, "rounds"),
            "cursor_us": base_us,
        }

    def _trace_round(self, round_index: int, sessions: int,
                     delta: dict) -> None:
        trace = self._trace
        if trace is None:
            return
        start_us = trace.get("round_start_us", trace["cursor_us"])
        duration = max(trace["cursor_us"] - start_us,
                       delta["rays"] * WORK_US_PER_RAY, 0.01)
        trace["tracer"].complete(
            "engine.round", "engine", start_us, duration,
            trace["pid"], trace["rounds_tid"],
            args={"round": round_index, "sessions": sessions, **delta})
        trace["cursor_us"] = start_us + duration
        trace["round_start_us"] = trace["cursor_us"]

    def _trace_render(self, session: RenderSession, rays: int) -> None:
        trace = self._trace
        if trace is None:
            return
        tracer = trace["tracer"]
        trace.setdefault("round_start_us", trace["cursor_us"])
        duration = max(rays * WORK_US_PER_RAY, 0.01)
        tracer.complete(
            "frame.render", "frame", trace["cursor_us"], duration,
            trace["pid"], tracer.thread(trace["pid"], session.session_id),
            args={"session": session.session_id, "rays": rays})
        trace["cursor_us"] += duration

    def _trace_cache(self, session: RenderSession, hit: bool) -> None:
        trace = self._trace
        if trace is None:
            return
        tracer = trace["tracer"]
        trace.setdefault("round_start_us", trace["cursor_us"])
        tracer.instant(
            "cache.hit" if hit else "cache.miss", "cache",
            trace["cursor_us"], trace["pid"],
            tracer.thread(trace["pid"], session.session_id),
            args={"session": session.session_id})

    def _trace_dispatch(self, group: int, bundles: int) -> None:
        trace = self._trace
        if trace is None:
            return
        trace.setdefault("round_start_us", trace["cursor_us"])
        trace["tracer"].instant(
            "pool.dispatch", "pool", trace["cursor_us"],
            trace["pid"], trace["rounds_tid"],
            args={"group": group, "bundles": bundles})

    def _release_memory(self) -> None:
        """Drop scratch arenas and geometry memos after a run.

        The memos are pure functions of their keys, so releasing them
        never changes results — it only returns the engine to its
        pre-run memory footprint (asserted by
        ``tests/engine/test_memory_release.py``).
        """
        from ..backend.parallel import release_process_memory
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.release()
        release_process_memory()

    # -- internals --------------------------------------------------------------

    def _select(self, ordered: list) -> list:
        """Prefix of the scheduler ordering that fits the ray budget.

        Requests that will be answered from the reference cache (already
        cached, or coalescing with an identical request earlier in this
        round's ordering) render zero new rays, so they don't consume
        budget.
        """
        if self.ray_budget is None:
            return ordered
        if self.governor is not None:
            return self._select_weighted(ordered)
        served, spent = [], 0
        seen_keys: set = set()
        for session in ordered:
            ckey = self._reference_cache_key(session)
            if ckey is not None and (ckey in seen_keys
                                     or ckey in self.reference_cache):
                rays = 0
            else:
                rays = session.pending_request.num_rays
                if ckey is not None:
                    seen_keys.add(ckey)
            if served and spent + rays > self.ray_budget:
                break
            served.append(session)
            spent += rays
        return served

    def _select_weighted(self, ordered: list) -> list:
        """Governed budget: each session owns a weighted share of the round.

        The round's ray budget is split into integer per-session shares
        by the governor's weights (``split_budget`` conserves the total);
        unused allowance rolls forward to later sessions in scheduler
        order, so the round stays work-conserving.  Cache-served requests
        cost no budget, and the head of the ordering is always served.
        """
        from ..control.governor import split_budget
        shares = split_budget(self.ray_budget,
                              self.governor.share_weights(ordered))
        served, carry = [], 0
        seen_keys: set = set()
        for session, share in zip(ordered, shares):
            ckey = self._reference_cache_key(session)
            if ckey is not None and (ckey in seen_keys
                                     or ckey in self.reference_cache):
                rays = 0
            else:
                rays = session.pending_request.num_rays
            allowance = share + carry
            if not served or rays <= allowance:
                if rays and ckey is not None:
                    seen_keys.add(ckey)
                served.append(session)
                carry = max(allowance - rays, 0)
            else:
                carry = allowance
        return served

    def _reference_cache_key(self, session: RenderSession) -> tuple | None:
        """Shared-cache key of the session's pending request, if cacheable.

        Only full-frame reference requests of sessions with a
        content-addressed workload identity qualify.
        """
        if self.reference_cache is None or session.cache_key is None:
            return None
        request = session.pending_request
        if request.kind != "reference" or request.pose is None:
            return None
        return (session.cache_key, pose_hash(request.pose), request.num_rays)

    @staticmethod
    def _output_size(output) -> int:
        return int(output.rgb.nbytes + output.depth_t.nbytes
                   + output.opacity.nbytes)

    def _memo_lookup(self, members: list) -> list:
        """``(memo key, memoized output or None)`` per group member.

        Only sessions with a content-addressed ``render_key`` are
        eligible; their key is the render key plus the exact bytes of
        the requested rays, never an object id (a renderer evicted from
        ``FIELD_CACHE`` and rebuilt may reuse the address of another).
        Each lookup counts into ``engine.render_memo.hits`` / ``.misses``
        (a miss is a bundle the field evaluates).
        """
        memo = self.render_memo
        lookups = []
        for session, _ in members:
            if memo is None or session.render_key is None:
                lookups.append((None, None))
                continue
            request = session.pending_request
            key = (session.render_key,
                   rays_hash(request.origins, request.directions))
            output = memo.get(key)
            metric_inc("engine.render_memo.misses" if output is None
                       else "engine.render_memo.hits")
            lookups.append((key, output))
        return lookups

    @staticmethod
    def _miss_bundles(members: list, lookups: list) -> list:
        """Ray bundles of the group members the render memo did not answer."""
        return [(s.pending_request.origins, s.pending_request.directions)
                for (s, _), (_, hit) in zip(members, lookups) if hit is None]

    def _memo_fill(self, lookups: list, rendered: list) -> list:
        """Merge memo hits with freshly rendered misses, in member order.

        Every rendered output with a memo key is frozen (read-only
        arrays, so a consumer mutating a shared output fails loudly) and
        stored.
        """
        rendered = iter(rendered)
        outputs = []
        for key, hit in lookups:
            if hit is not None:
                outputs.append(hit)
                continue
            output = next(rendered)
            if key is not None:
                for array in (output.rgb, output.depth_t, output.opacity):
                    array.flags.writeable = False
                self.render_memo.put(key, output,
                                     size_bytes=self._output_size(output))
            outputs.append(output)
        return outputs

    def _serve_round(self, served: list, stats: BatchStats) -> None:
        """Batch the pending requests of ``served`` by renderer and answer.

        With a reference cache attached, cached reference requests are
        answered without touching the renderer, and identical reference
        requests arriving in the same round (sessions consuming the same
        content in lockstep) coalesce into a single evaluation.  With a
        render memo attached, memoized requests skip only the field
        evaluation: the round's accounting, cache traffic, trace spans
        and deliveries are those of a memo-less round.
        """
        groups: dict = {}
        followers: dict = {}  # cache key -> sessions awaiting the primary
        for session in served:
            ckey = self._reference_cache_key(session)
            if ckey is not None:
                if ckey in followers:  # coalesce with this round's primary
                    followers[ckey].append(session)
                    continue
                cached = self.reference_cache.get(ckey)
                if cached is not None:
                    stats.cache_hits += 1
                    self._trace_cache(session, hit=True)
                    session.deliver(cached)
                    continue
                self._trace_cache(session, hit=False)
                followers[ckey] = []
            groups.setdefault(batch_key(session.renderer),
                              []).append((session, ckey))

        # Render-memo hits (see _memo_lookup) leave only the misses to
        # render; with no memo every request is a miss.  With the
        # parallel backend, every group's misses are queued to the pool
        # up-front, in one call (so the pool forks at most once per
        # round), and workers overlap across groups.  Accounting and
        # delivery below walk groups in insertion order either way, so
        # stats, cache traffic, and delivery order are identical to serial.
        group_list = list(groups.values())
        lookups = [self._memo_lookup(members) for members in group_list]
        tickets: dict = {}
        if self._pool is not None:
            pooled = {}
            for gi, members in enumerate(group_list):
                bundles = self._miss_bundles(members, lookups[gi])
                if bundles:
                    pooled[gi] = (members[0][0].renderer, bundles)
            tickets = dict(zip(pooled, self._pool.submit(
                list(pooled.values()))))
            for gi, (_, bundles) in pooled.items():
                self._trace_dispatch(gi, len(bundles))

        for gi, members in enumerate(group_list):
            renderer = members[0][0].renderer
            requests = [s.pending_request for s, _ in members]
            if gi in tickets:
                rendered = self._pool.collect(tickets[gi])
            else:
                bundles = self._miss_bundles(members, lookups[gi])
                rendered = (renderer.render_ray_batch(bundles) if bundles
                            else [])
            outputs = self._memo_fill(lookups[gi], rendered)
            stats.nerf_calls += 1
            stats.requests += len(requests)
            batch_rays = sum(r.num_rays for r in requests)
            stats.total_rays += batch_rays
            stats.max_batch_rays = max(stats.max_batch_rays, batch_rays)
            for (session, ckey), request, output in zip(members, requests,
                                                        outputs):
                if ckey is not None:
                    self.reference_cache.put(ckey, output,
                                             size_bytes=self._output_size(output))
                self._trace_render(session, request.num_rays)
                session.deliver(output)
                for follower in (followers.get(ckey, ())
                                 if ckey is not None else ()):
                    # Followers read the entry the primary just inserted, so
                    # coalesced requests register as cache hits too.
                    shared = self.reference_cache.get(ckey)
                    stats.cache_hits += 1
                    self._trace_cache(follower, hit=True)
                    follower.deliver(shared if shared is not None else output)
