"""Persistent forked worker pool fanning ray bundles across cores.

The ``parallel`` backend's engine path.  Workers are forked from the
serving process, so every renderer the pool knows at fork time — baked
field tables and occupancy mask included — is already in each worker,
as a copy-on-write view of the parent's own arrays.  Nothing is exported
or copied: only ray bundles and per-bundle results cross the pool
boundary.  A worker calls ``shared[token].render_rays(...)`` on the very
renderer the serial path would use, so per-bundle results are
bit-identical to serial rendering (the ``parallel`` backend's
exact-parity contract) for any field kind.

The fork-time snapshot and the re-fork rule: the pool forks its workers
when it first has bundles to render, over a snapshot of every live
renderer it has been handed, and forks again only when a dispatch names
a renderer its current workers were not forked with — after collecting
every outstanding task.  The engine hands all of a round's groups over
in one call, so a serving run over a fixed set of renderers forks once.
Each fork bumps the ``pool.forks`` counter of the active metrics
registry.

Cost of the design, stated rather than hidden: a worker keeps the
parent's memory image from its fork alive (copy-on-write) until the next
re-fork or shutdown — bounded by one process image per worker — so a
renderer the parent drops in the meantime is freed only then; the same
holds for descriptors the parent had open at the fork.  The backend
needs a platform with ``fork``.

Lifecycle: :func:`get_pool` returns the process-wide pool (created
without forking); :func:`shutdown_pool`, also run ``atexit``, stops the
workers; a ``release`` broadcast drops worker scratch arenas.  A worker
that dies makes :meth:`WorkerPool.collect` raise at once, naming it; the
next dispatch re-forks.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import traceback
import weakref
from multiprocessing.connection import wait

import numpy as np

from ..obs.runtime import deactivate, metric_inc

__all__ = ["WorkerPool", "get_pool", "shutdown_pool",
           "release_process_memory"]

_RESULT_TIMEOUT_S = 120.0


def release_process_memory() -> None:
    """Drop scratch arenas and geometry memos (worker + engine hook)."""
    from ..geometry.camera import clear_dir_grid_cache
    from ..geometry.pointcloud import clear_lift_cache
    from ..nerf.sampling import clear_sampling_scratch
    clear_sampling_scratch()
    clear_dir_grid_cache()
    clear_lift_cache()


def _worker_main(inq, outq, shared: dict) -> None:
    """Pool worker: render bundles with the renderers inherited at fork."""
    # The parent's tracer and metrics registry (and the registry's lock,
    # which another parent thread may have held at the fork) stay there.
    deactivate()
    while True:
        msg = inq.get()
        if msg[0] == "release":
            release_process_memory()
            continue
        _, task_id, token, origins, directions = msg
        try:
            outq.put(("ok", task_id,
                      shared[token].render_rays(origins, directions)))
        except Exception:
            outq.put(("err", task_id, traceback.format_exc()))


class WorkerPool:
    """Forked render workers fed round-robin over per-worker queues."""

    def __init__(self, num_workers: int):
        self.num_workers = int(num_workers)
        self._ctx = multiprocessing.get_context("fork")
        # renderer -> token; tokens only grow, so the current workers
        # hold exactly the live renderers with token <= _forked_through.
        self._tokens = weakref.WeakKeyDictionary()
        self._token_ids = itertools.count(1)
        self._forked_through = 0
        self._procs: list = []
        self._inqs: list = []
        self._outq = None
        self._next_worker = 0
        self._task_ids = itertools.count(1)
        self._outstanding: set = set()  # submitted, result not yet read
        self._done: dict = {}  # results read, awaiting collection

    def _token(self, renderer) -> int:
        token = self._tokens.get(renderer)
        if token is None:
            token = self._tokens[renderer] = next(self._token_ids)
        return token

    def _fork(self) -> None:
        """(Re)start the workers over a snapshot of every live renderer."""
        self._receive(self._outstanding)
        self._stop()
        shared = {token: renderer for renderer, token in self._tokens.items()}
        self._outq = self._ctx.Queue()
        for _ in range(self.num_workers):
            inq = self._ctx.Queue()
            proc = self._ctx.Process(target=_worker_main,
                                     args=(inq, self._outq, shared),
                                     daemon=True)
            proc.start()
            self._inqs.append(inq)
            self._procs.append(proc)
        self._forked_through = max(shared)
        metric_inc("pool.forks")

    def _stop(self) -> None:
        """Kill the current workers and forget their queues and tasks."""
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.join()
        for inq in self._inqs:
            # A dead worker's unread tasks must not hold up interpreter exit.
            inq.cancel_join_thread()
        self._procs, self._inqs, self._outq = [], [], None
        self._outstanding.clear()

    def submit(self, groups: list) -> list:
        """Queue every ``(renderer, [(origins, directions), ...])`` group.

        Returns one task-id list per group.  Non-blocking: pair with
        :meth:`collect`.  Forks first when no workers run yet or a group
        names a renderer the current workers were not forked with.
        """
        tokens = [self._token(renderer) for renderer, _ in groups]
        if tokens and (not self._procs or max(tokens) > self._forked_through):
            self._fork()
        tickets = []
        for token, (_, bundles) in zip(tokens, groups):
            metric_inc("pool.dispatches")
            metric_inc("pool.bundles", len(bundles))
            task_ids = []
            for origins, directions in bundles:
                task_id = next(self._task_ids)
                self._inqs[self._next_worker].put(
                    ("render", task_id, token,
                     np.ascontiguousarray(origins),
                     np.ascontiguousarray(directions)))
                self._next_worker = (self._next_worker + 1) % self.num_workers
                task_ids.append(task_id)
            self._outstanding.update(task_ids)
            tickets.append(task_ids)
        return tickets

    def collect(self, task_ids: list) -> list:
        """Results for previously submitted tasks, in ``task_ids`` order.

        Each result is the :class:`~repro.nerf.renderer.RenderOutput` of
        one bundle — bit-identical to the serial per-bundle
        ``render_rays`` output.  Raises on worker failure, worker death
        or timeout.
        """
        self._receive(set(task_ids) - self._done.keys())
        return [self._done.pop(t) for t in task_ids]

    def _receive(self, needed: set) -> None:
        """Read results until every task in ``needed`` has arrived.

        Waits on the result queue and the workers' process sentinels
        together, so a dead worker raises at once, not after the timeout.
        """
        needed = set(needed)
        # A Queue has no public handle to wait on; concurrent.futures'
        # process pool waits on the same reader.
        reader = self._outq._reader if needed else None
        sentinels = {proc.sentinel: index
                     for index, proc in enumerate(self._procs)}
        while needed:
            ready = wait([reader, *sentinels], timeout=_RESULT_TIMEOUT_S)
            if not ready:
                raise RuntimeError(
                    "parallel backend: worker result timed out "
                    f"({len(needed)} bundles outstanding)")
            if reader not in ready:  # only a sentinel: a worker exited
                index = sentinels[ready[0]]
                dead = self._procs[index]
                self._stop()  # joins it, which sets its exit code
                self._done.clear()
                raise RuntimeError(
                    f"parallel backend: worker {index} exited with code "
                    f"{dead.exitcode} ({len(needed)} bundles outstanding)")
            status, task_id, payload = self._outq.get()
            self._outstanding.discard(task_id)
            if status == "err":
                raise RuntimeError(
                    f"parallel backend: worker failed:\n{payload}")
            self._done[task_id] = payload
            needed.discard(task_id)

    def release(self) -> None:
        """Broadcast a scratch-arena release to every worker."""
        for inq in self._inqs:
            inq.put(("release",))

    def shutdown(self) -> None:
        """Stop the workers and drop every pending result."""
        self._stop()
        self._done.clear()


_POOL: WorkerPool | None = None


def get_pool(num_workers: int) -> WorkerPool:
    """The process-wide pool, (re)created to match ``num_workers``.

    Creating it forks nothing; workers start on the first dispatch.
    """
    global _POOL
    if _POOL is not None and _POOL.num_workers != num_workers:
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(num_workers)
    return _POOL


def shutdown_pool() -> None:
    """Stop the process-wide pool's workers."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)
