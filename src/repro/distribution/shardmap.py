"""Rendezvous shard map: which workers own which baked fields.

Generalizes :func:`repro.cluster.placement.rendezvous_score` from "one
preferred worker per key" to an **owner set** of size ``replication``:
the top-R workers in the key's highest-random-weight ranking.  Because
every (key, worker) pair is scored independently, fleet resizes rebalance
deterministically and minimally:

* adding a worker re-homes only the keys for which the newcomer enters
  the top-R (≈ ``R × keys / (N + 1)`` of them in expectation);
* removing a worker changes ownership only for the keys it owned — the
  relative ranking of the survivors is untouched, so each affected key
  simply promotes the next-ranked survivor.

The map is pure bookkeeping (no I/O, no clock) and fully deterministic,
which lets the property suite in ``tests/distribution/`` state these
invariants exactly rather than statistically.
"""

from __future__ import annotations

from ..cluster.placement import rendezvous_score

__all__ = ["ShardMap"]


class ShardMap:
    """Deterministic key → owner-set mapping over a mutable fleet."""

    def __init__(self, replication: int = 2):
        if replication < 0:
            raise ValueError(f"replication must be >= 0, got {replication}")
        self.replication = int(replication)
        self._members: set[str] = set()

    def add(self, member: str) -> None:
        """Join a worker; idempotent."""
        self._members.add(member)

    def remove(self, member: str) -> None:
        """Retire a worker; idempotent (unknown ids are ignored)."""
        self._members.discard(member)

    def ranking(self, key: str) -> list[str]:
        """All members ordered best-first by rendezvous score for ``key``."""
        return sorted(self._members,
                      key=lambda m: rendezvous_score(key, m), reverse=True)

    def owners(self, key: str) -> tuple[str, ...]:
        """The ``min(replication, len(fleet))`` owners of ``key``, best-first."""
        if not self.replication or not self._members:
            return ()
        return tuple(self.ranking(key)[:self.replication])
