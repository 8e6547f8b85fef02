"""Field distribution tier: scene catalogs, shard maps, two-tier caches.

ROADMAP open item 4 ("sharded field serving for millions of scenes")
lives here.  The package answers three questions the single-worker
serving stack never had to ask:

* *What are we serving?* — :class:`SceneCatalog` expands the curated
  workload specs into hundreds-to-thousands of variants under a seeded
  zipfian popularity law: distinct identities for placement, the shard
  map and the field-tier cost model, whose pixels are their base's.
* *Who owns what?* — :class:`ShardMap` generalizes the cluster's
  rendezvous hash to replicated owner sets with deterministic,
  minimal rebalance on fleet resize.
* *What does a miss cost?* — :class:`ShardedFieldStore` charges
  bake-vs-transfer seconds on the simulator's virtual clock through a
  per-worker local LRU backed by the shard tier
  (:class:`FieldCostModel` sizes fields from the experiment config).

Everything is deterministic per seed; the cluster simulator threads the
store through placement, worker admission, and ``ClusterReport``.
"""

from .catalog import SceneCatalog
from .shardmap import ShardMap
from .tier import FieldCostModel, ShardedFieldStore

__all__ = ["SceneCatalog", "ShardMap", "FieldCostModel",
           "ShardedFieldStore", "expand_field_serving"]

DEFAULT_ZIPF_S = 1.1
DEFAULT_REPLICATION = 2


def expand_field_serving(mix, config, catalog: int,
                         zipf: float | None = None,
                         replication: int | None = None,
                         seed: int = 0):
    """Resolve ``--catalog/--zipf/--replication`` into runnable pieces.

    Returns ``(variant_mix, store)``: the zipf-weighted ``(spec, count)``
    pairs over a ``catalog``-sized :class:`SceneCatalog` seeded from
    ``seed``, and the :class:`ShardedFieldStore` the cluster simulator
    should attach.  ``simulate_cluster``'s ``catalog`` path is its only
    library caller, so every catalog run expands identically.
    """
    s = DEFAULT_ZIPF_S if zipf is None else float(zipf)
    r = DEFAULT_REPLICATION if replication is None else int(replication)
    catalog_obj = SceneCatalog(mix, catalog, seed=seed)
    store = ShardedFieldStore(config, replication=r,
                              catalog_size=len(catalog_obj), zipf_s=s)
    return catalog_obj.zipf_mix(s), store
