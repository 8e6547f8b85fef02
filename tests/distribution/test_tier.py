"""Two-tier field store: acquire semantics, eviction, cost model."""

import pytest

from repro.distribution import tier
from repro.distribution import (
    FieldCostModel,
    SceneCatalog,
    ShardedFieldStore,
)
from repro.harness.configs import FAST

CATALOG = SceneCatalog("vr-lego,dolly-chair", 24, seed=0)
SPECS = CATALOG.specs


def store_with(workers=3, **kwargs):
    store = ShardedFieldStore(FAST, **kwargs)
    for i in range(workers):
        store.register_worker(f"w{i:02d}")
    return store


class TestCostModel:
    def test_field_bytes_scale_with_config(self):
        model = FieldCostModel()
        small = model.field_bytes(SPECS[0], FAST)
        from repro.harness.configs import DEFAULT
        assert 0 < small < model.field_bytes(SPECS[0], DEFAULT)

    def test_bake_dwarfs_transfer(self):
        model = FieldCostModel()
        nbytes = model.field_bytes(SPECS[0], FAST)
        assert model.bake_s(nbytes) > 10 * model.transfer_s(nbytes)

    def test_algorithms_size_differently(self):
        model = FieldCostModel()
        by_algorithm = {spec.algorithm: model.field_bytes(spec, FAST)
                        for spec in SPECS}
        assert all(nbytes > 0 for nbytes in by_algorithm.values())


class TestAcquire:
    def test_cold_bake_then_local_then_transfer(self):
        store = store_with(replication=2)
        spec = SPECS[0]
        kind, delay = store.acquire("w00", spec, 0.0)
        assert kind == "bake" and delay > 0
        assert store.acquire("w00", spec, 1.0) == ("local", 0.0)
        # Another worker finds the replica in the shard tier.  Owners
        # serve it on-box for free; non-owners pay the transfer.
        owners = set(store.shard_map.owners(spec.cache_key(FAST)))
        others = {"w00", "w01", "w02"} - {"w00"}
        for worker_id in sorted(others):
            kind, delay = store.acquire(worker_id, spec, 2.0)
            assert kind == "shard"
            assert (delay == 0.0) == (worker_id in owners)

    def test_replication_zero_always_rebakes(self):
        store = store_with(replication=0)
        spec = SPECS[0]
        assert store.acquire("w00", spec, 0.0)[0] == "bake"
        assert store.acquire("w01", spec, 1.0)[0] == "bake"
        assert store.acquire("w00", spec, 2.0)[0] == "local"
        assert store.stats()["field_bakes"] == 2

    def test_local_lru_bounded_with_eviction(self):
        store = store_with(replication=0, local_entries=2)
        for spec in SPECS[:3]:
            store.acquire("w00", spec, 0.0)
        assert store.local_evictions == 1
        # The evicted (oldest) field re-bakes; the newest is still local.
        assert store.acquire("w00", SPECS[0], 1.0)[0] == "bake"
        assert store.acquire("w00", SPECS[2], 1.0)[0] == "local"

    def test_shard_capacity_evicts_lru_replicas(self, monkeypatch):
        nbytes = FieldCostModel().field_bytes(SPECS[0], FAST)
        monkeypatch.setattr(tier, "SHARD_CAPACITY_BYTES", 2 * nbytes)
        store = store_with(workers=1, replication=1, local_entries=1)
        for spec in SPECS[:4]:
            store.acquire("w00", spec, 0.0)
        assert store.shard_evictions > 0
        stats = store.stats()
        assert stats["shard_resident_bytes"] <= 2 * nbytes

    def test_removed_worker_replicas_vanish(self):
        store = store_with(workers=2, replication=2)
        spec = SPECS[0]
        store.acquire("w00", spec, 0.0)  # bakes at both owners
        store.remove_worker("w00")
        store.remove_worker("w01")
        store.register_worker("w05")
        assert store.acquire("w05", spec, 1.0)[0] == "bake"

    def test_holders_are_the_workers_that_skip_a_bake(self):
        store = store_with(replication=2)
        spec = SPECS[0]
        key = spec.cache_key(FAST)
        assert store.holders(key) == set()
        store.acquire("w00", spec, 0.0)
        holders = store.holders(key)
        assert holders == set(store.shard_map.owners(key)) | {"w00"}
        for worker_id in sorted(holders):
            assert store.acquire(worker_id, spec, 1.0)[0] != "bake"
        store.remove_worker("w00")
        assert "w00" not in store.holders(key)

    def test_rejects_unbounded_local_tier(self):
        with pytest.raises(ValueError):
            ShardedFieldStore(FAST, local_entries=0)


class TestStats:
    def test_hierarchy_hit_rate_counts_both_tiers(self):
        store = store_with(replication=3)
        spec = SPECS[0]
        store.acquire("w00", spec, 0.0)          # bake
        store.acquire("w00", spec, 1.0)          # local hit
        store.acquire("w01", spec, 2.0)          # shard hit
        stats = store.stats()
        assert stats["field_lookups"] == 3
        assert stats["field_local_hits"] == 1
        assert stats["field_shard_hits"] == 1
        assert stats["field_bakes"] == 1
        assert stats["hierarchy_hit_rate"] == pytest.approx(2 / 3)
        assert stats["unique_fields_baked"] == 1
        assert stats["bake_s_total"] > 0

    def test_worker_stats_split_per_worker(self):
        store = store_with(replication=1)
        store.acquire("w00", SPECS[0], 0.0)
        store.acquire("w00", SPECS[0], 1.0)
        row = store.worker_stats("w00")
        assert row["field_bakes"] == 1
        assert row["field_local_hits"] == 1
        assert store.worker_stats("w01")["field_bakes"] == 0
