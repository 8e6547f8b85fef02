"""Placement policies: which worker an admitted session lands on.

Policies see only the admission-eligible workers (live, queue not full),
always presented in stable ``worker_id`` order, and are fully
deterministic — the cluster simulator's reproducibility contract extends
through placement.

``cache_affinity`` is the cluster-level payoff of the shared reference
cache: it rendezvous-hashes the session's content-addressed
:meth:`~repro.workloads.WorkloadSpec.cache_key`, so sessions viewing the
same content co-locate on the worker whose ``REFERENCE_CACHE`` already
holds their reference renders — and, because rendezvous (highest-random-
weight) hashing scores every worker independently, affinity survives the
autoscaler growing or shrinking the fleet.
"""

from __future__ import annotations

import hashlib

__all__ = ["rendezvous_score", "RoundRobinPlacement",
           "LeastLoadedPlacement", "CacheAffinityPlacement",
           "ShardAffinityPlacement", "PLACEMENTS", "make_placement"]


def rendezvous_score(key: str, member: str) -> str:
    """Highest-random-weight score of ``member`` for ``key``.

    The single scoring function behind both :class:`CacheAffinityPlacement`
    and the sharded field tier's :class:`~repro.distribution.ShardMap`, so
    "the worker a session is affine to" and "the primary owner of its
    baked field" always agree.
    """
    return hashlib.sha1(f"{key}|{member}".encode()).hexdigest()


class RoundRobinPlacement:
    """Cycle over eligible workers in id order, one step per placement."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def choose(self, cache_key: str, workers: list):
        """Cycle through the open workers in order."""
        worker = workers[self._next % len(workers)]
        self._next += 1
        return worker


class LeastLoadedPlacement:
    """Fewest resident sessions wins; ties fall back to worker id."""

    name = "least_loaded"

    def choose(self, cache_key: str, workers: list):
        """Pick the worker with the fewest resident sessions (ties by id)."""
        return min(workers, key=lambda w: (w.load, w.worker_id))


class CacheAffinityPlacement:
    """Rendezvous-hash the workload's cache key onto the fleet.

    Every eligible worker gets a score ``H(cache_key | worker_id)``; the
    highest score wins.  Sessions sharing a cache key therefore agree on
    a preferred worker (and on the fallback ranking when that worker is
    full or gone), without any shared mutable state.
    """

    name = "cache_affinity"

    def choose(self, cache_key: str, workers: list):
        """Rendezvous-hash the content key onto the live fleet."""
        return max(workers,
                   key=lambda w: rendezvous_score(cache_key, w.worker_id))


class ShardAffinityPlacement:
    """Load-first placement that breaks ties toward field holders.

    When a :class:`~repro.distribution.ShardedFieldStore` is attached
    (``self.store``, wired by the cluster simulator), the policy picks
    the least-loaded eligible worker, preferring — at equal load — one
    whose caches already hold the session's baked field (a free local
    hit instead of a shard transfer).  Load stays primary because the
    shard tier makes misses cheap: once any worker has baked a field,
    every other worker can transfer it in milliseconds, so chasing
    residency at the cost of queueing behind a busy holder is a bad
    trade.  Cold keys are also load-balanced — a bake seeds the
    rendezvous owner set wherever it runs.

    Without a store it degrades to :class:`CacheAffinityPlacement`'s
    rendezvous choice, so the policy is safe to select on un-sharded
    runs.
    """

    name = "shard_affinity"

    def __init__(self):
        self.store = None

    def choose(self, cache_key: str, workers: list):
        """Least-loaded eligible worker, holders first on ties."""
        if self.store is not None:
            holder_ids = self.store.holders(cache_key)
            return min(workers,
                       key=lambda w: (w.load, w.worker_id not in holder_ids,
                                      w.worker_id))
        return CacheAffinityPlacement().choose(cache_key, workers)


PLACEMENTS = {
    policy.name: policy
    for policy in (RoundRobinPlacement, LeastLoadedPlacement,
                   CacheAffinityPlacement, ShardAffinityPlacement)
}


def make_placement(name: str):
    """Placement policy instance by name (see :data:`PLACEMENTS`)."""
    try:
        return PLACEMENTS[name]()
    except KeyError:
        raise ValueError(f"unknown placement policy {name!r}; one of "
                         f"{tuple(sorted(PLACEMENTS))}") from None
