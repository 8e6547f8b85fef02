"""Two-tier field cache with bake-vs-transfer cost accounting.

The serving hierarchy a session's first frame walks, cheapest first:

1. **local** — the worker's own LRU of recently served fields: hit
   costs nothing on the virtual clock.
2. **shard** — the fleet-wide shard tier: if any rendezvous owner of
   the field holds a baked replica, the worker *transfers* it
   (``transfer_s``, milliseconds at modeled NIC bandwidth; the worker
   is not occupied while the bytes move).
3. **bake** — nobody holds it: the worker bakes the field from scene
   assets (``bake_s``, seconds), *occupying itself* for the duration,
   then seeds the replica at every shard owner.

:class:`FieldCostModel` sizes a field from the spec's resolved
:class:`~repro.harness.configs.ExperimentConfig` (dense grid / hash
table / tensor factors, per algorithm) so bake and transfer seconds
scale with the same knobs the renderers do.  :class:`ShardedFieldStore`
is pure deterministic bookkeeping on the simulator's virtual clock —
no wall time, no randomness — so seeded cluster runs stay
bit-reproducible with the tier enabled.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from ..obs.runtime import metric_inc, metric_observe
from ..workloads.cache import LRUCore
from .shardmap import ShardMap

__all__ = ["FieldCostModel", "ShardedFieldStore"]

#: Bytes of baked fields one worker's shard slice holds before its LRU
#: replicas are evicted.
SHARD_CAPACITY_BYTES = 256 << 20


@dataclass(frozen=True)
class FieldCostModel:
    """Bytes → seconds model for baking and moving reference fields."""

    bake_bytes_per_s: float = 4e6       # optimizing a field from assets
    transfer_bytes_per_s: float = 400e6  # intra-fleet copy bandwidth
    transfer_overhead_s: float = 0.01    # per-fetch RPC/setup floor

    def field_bytes(self, spec, config) -> int:
        """Modeled size of the spec's baked field at its resolved scale."""
        resolved = spec.resolve_config(config)
        if spec.algorithm == "instant_ngp":
            params = resolved.hash_levels * resolved.hash_table_size \
                * resolved.feature_dim
        elif spec.algorithm == "tensorf":
            res, rank = resolved.tensorf_resolution, resolved.tensorf_rank
            params = 3 * rank * (res * res + res) * resolved.feature_dim
        else:  # dense voxel grid (directvoxgo and friends)
            params = resolved.grid_resolution ** 3 \
                * (resolved.feature_dim + 1)
        return int(params) * 4  # float32

    def bake_s(self, nbytes: int) -> float:
        """Cold-start seconds to bake ``nbytes`` of field from assets."""
        return nbytes / self.bake_bytes_per_s

    def transfer_s(self, nbytes: int) -> float:
        """Seconds to pull an ``nbytes`` replica from a shard owner."""
        return self.transfer_overhead_s + nbytes / self.transfer_bytes_per_s


class ShardedFieldStore:
    """Per-worker local LRU in front of a replicated shard tier.

    Each worker holds two :class:`~repro.workloads.cache.LRUCore` tiers:
    a local one bounded by ``local_entries`` and a shard slice bounded by
    :data:`SHARD_CAPACITY_BYTES`.  ``acquire(worker_id, spec, now_s)``
    resolves where the session's field comes from and returns
    ``(kind, delay_s)`` with ``kind`` one of ``"local"`` / ``"shard"`` /
    ``"bake"``.  ``replication=0``
    disables the shard tier entirely — every non-local access re-bakes,
    which is the per-worker-LRU-only baseline the headline experiment
    compares against.
    """

    def __init__(self, config, replication: int = 2,
                 local_entries: int = 8,
                 catalog_size: int = 0, zipf_s: float | None = None):
        if local_entries < 1:
            raise ValueError(
                f"local_entries must be >= 1, got {local_entries}")
        self.config = config
        self.cost = FieldCostModel()
        self.shard_map = ShardMap(replication=replication)
        self.catalog_size = int(catalog_size)
        self.zipf_s = zipf_s
        self.local_entries = int(local_entries)
        self._local: dict[str, LRUCore] = {}
        self._shard: dict[str, LRUCore] = {}
        self._counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._baked_keys: set[str] = set()
        self.bake_s_total = 0.0
        self.transfer_s_total = 0.0
        self.local_evictions = 0
        self.shard_evictions = 0

    # -- fleet membership ------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        """Join a worker: empty caches, added to the shard map."""
        self.shard_map.add(worker_id)
        self._tiers(worker_id)

    def remove_worker(self, worker_id: str) -> None:
        """Retire a worker: its replicas vanish; surviving ranks shift up."""
        self.shard_map.remove(worker_id)
        self._local.pop(worker_id, None)
        self._shard.pop(worker_id, None)

    # -- lookups ---------------------------------------------------------

    def holders(self, key: str) -> set[str]:
        """Live workers that can serve ``key`` without baking it."""
        held = {wid for wid, cache in self._shard.items() if key in cache}
        held.update(
            wid for wid, cache in self._local.items() if key in cache)
        return held

    def acquire(self, worker_id: str, spec, now_s: float = 0.0):
        """Resolve ``spec``'s field for ``worker_id`` → ``(kind, delay_s)``."""
        key = spec.cache_key(self.config)
        local, shard = self._tiers(worker_id)
        if local.touch(key) is not None:
            self._counts[worker_id]["local"] += 1
            metric_inc("cluster.field.local_hits")
            return "local", 0.0
        nbytes = self.cost.field_bytes(spec, self.config)
        if shard.touch(key) is not None:
            # On-box replica in this worker's own shard slice: a tier-2
            # hit with no bytes on the wire (promoted into the LRU).
            kind, delay = "shard", 0.0
        else:
            owners = self.shard_map.owners(key)
            if any(key in self._shard.get(owner, ()) for owner in owners):
                kind, delay = "shard", self.cost.transfer_s(nbytes)
                self.transfer_s_total += delay
                metric_observe("cluster.field.transfer_s", delay)
            else:
                kind, delay = "bake", self.cost.bake_s(nbytes)
                for owner in owners:
                    evicted = self._tiers(owner)[1].put(key, nbytes, nbytes)
                    if evicted:
                        self.shard_evictions += evicted
                        metric_inc("cluster.field.shard_evictions", evicted)
                self._baked_keys.add(key)
                self.bake_s_total += delay
                metric_observe("cluster.field.bake_s", delay)
        evicted = local.put(key, nbytes)
        if evicted:
            self.local_evictions += evicted
            metric_inc("cluster.field.local_evictions", evicted)
        self._counts[worker_id][kind] += 1
        metric_inc("cluster.field.bakes" if kind == "bake"
                   else "cluster.field.shard_hits")
        return kind, delay

    # -- internals -------------------------------------------------------

    def _tiers(self, worker_id: str) -> tuple[LRUCore, LRUCore]:
        """``(local, shard)`` caches of ``worker_id``, created on first use."""
        if worker_id not in self._local:
            self._local[worker_id] = LRUCore(max_entries=self.local_entries)
            self._shard[worker_id] = LRUCore(max_bytes=SHARD_CAPACITY_BYTES)
        return self._local[worker_id], self._shard[worker_id]

    # -- reporting -------------------------------------------------------

    def worker_stats(self, worker_id: str) -> dict:
        """Per-worker tier counters for :meth:`Worker.stats_row`."""
        counts = self._counts.get(worker_id, Counter())
        shard = self._shard.get(worker_id)
        return {
            "field_local_hits": counts["local"],
            "field_shard_hits": counts["shard"],
            "field_bakes": counts["bake"],
            "shard_resident_bytes": 0 if shard is None else shard.total_bytes,
        }

    def stats(self) -> dict:
        """Fleet-wide tier counters and hierarchy hit rate."""
        totals = sum(self._counts.values(), Counter())
        lookups = sum(totals.values())
        hits = totals["local"] + totals["shard"]
        return {
            "replication": self.shard_map.replication,
            "field_lookups": lookups,
            "field_local_hits": totals["local"],
            "field_shard_hits": totals["shard"],
            "field_bakes": totals["bake"],
            "hierarchy_hit_rate": hits / lookups if lookups else 0.0,
            "local_hit_rate": totals["local"] / lookups if lookups else 0.0,
            "shard_hit_rate": totals["shard"] / lookups if lookups else 0.0,
            "unique_fields_baked": len(self._baked_keys),
            "bake_s_total": self.bake_s_total,
            "transfer_s_total": self.transfer_s_total,
            "local_evictions": self.local_evictions,
            "shard_evictions": self.shard_evictions,
            "shard_resident_bytes": sum(
                shard.total_bytes for shard in self._shard.values()),
        }
