"""Seeded scene catalog: variant identity, popularity law, determinism."""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import DEFAULT_CLUSTER_MIX
from repro.distribution import SceneCatalog
from repro.harness.configs import FAST
from repro.workloads import WORKLOADS, parse_mix

FULL_MIX = ",".join(sorted(WORKLOADS))


class TestVariantIdentity:
    def test_expands_to_size_with_distinct_cache_keys(self):
        catalog = SceneCatalog(FULL_MIX, 80, seed=7)
        assert len(catalog) == 80
        keys = {spec.cache_key(FAST) for spec in catalog.specs}
        assert len(keys) == 80  # every variant is a distinct baked field

    def test_variants_reuse_curated_scenes_only(self):
        catalog = SceneCatalog(FULL_MIX, 50, seed=1)
        base_scenes = {spec.scene for spec, _ in parse_mix(FULL_MIX)}
        assert {spec.scene for spec in catalog.specs} <= base_scenes

    def test_variant_names_trace_their_base(self):
        catalog = SceneCatalog("vr-lego:2,dolly-chair", 6, seed=0)
        assert [spec.name for spec in catalog.specs] == [
            "vr-lego@0000", "dolly-chair@0001", "vr-lego@0002",
            "dolly-chair@0003", "vr-lego@0004", "dolly-chair@0005"]

    def test_variants_distinct_from_curated_specs(self):
        catalog = SceneCatalog(FULL_MIX, 16, seed=0)
        base_keys = {spec.cache_key(FAST)
                     for spec, _ in parse_mix(FULL_MIX)}
        variant_keys = {spec.cache_key(FAST) for spec in catalog.specs}
        assert not base_keys & variant_keys

    def test_variants_draw_their_base_pixels(self):
        # A variant differs from its base only by seed, which the orbit,
        # dolly and headshake trajectories ignore: 40 identities for
        # placement and the field tier draw 2 renderers and 3 pose
        # sequences.
        specs = SceneCatalog(DEFAULT_CLUSTER_MIX, 40).specs
        assert len({spec.cache_key(FAST) for spec in specs}) == 40
        assert len({spec.render_key(FAST) for spec in specs}) == 2
        sequences: dict = {}
        for spec in specs:
            poses = np.stack(spec.build_trajectory(FAST).poses).tobytes()
            sequences.setdefault(poses, []).append(spec.name.split("@")[0])
        assert sorted(Counter(names).most_common()
                      for names in sequences.values()) == [
            [("dolly-chair", 13)], [("vr-headshake", 13)], [("vr-lego", 14)]]

    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError):
            SceneCatalog(FULL_MIX, 0)


class TestDeterminism:
    def test_same_seed_same_catalog(self):
        a = SceneCatalog(FULL_MIX, 40, seed=9)
        b = SceneCatalog(FULL_MIX, 40, seed=9)
        assert a.specs == b.specs
        assert a.ranks == b.ranks
        assert a.zipf_mix(1.3) == b.zipf_mix(1.3)

    def test_different_seed_different_content(self):
        a = SceneCatalog(FULL_MIX, 40, seed=9)
        b = SceneCatalog(FULL_MIX, 40, seed=10)
        assert {s.cache_key(FAST) for s in a.specs}.isdisjoint(
            {s.cache_key(FAST) for s in b.specs})
        assert a.ranks != b.ranks  # popularity permutation reseeds too


class TestZipfMix:
    def test_counts_cover_total_with_floor_one(self):
        catalog = SceneCatalog(FULL_MIX, 64, seed=3)
        mix = catalog.zipf_mix(1.3)
        counts = [count for _, count in mix]
        assert len(mix) == 64
        assert sum(counts) == 8 * 64  # default weight budget
        assert min(counts) >= 1  # whole catalog stays samplable

    def test_skew_follows_popularity_rank(self):
        catalog = SceneCatalog(FULL_MIX, 32, seed=5)
        mix = catalog.zipf_mix(1.5)
        by_rank = sorted(zip(catalog.ranks, (c for _, c in mix)))
        counts_in_rank_order = [count for _, count in by_rank]
        assert counts_in_rank_order == sorted(counts_in_rank_order,
                                              reverse=True)
        assert counts_in_rank_order[0] > counts_in_rank_order[-1]

    def test_zero_skew_is_uniform(self):
        catalog = SceneCatalog(FULL_MIX, 16, seed=2)
        counts = {count for _, count in catalog.zipf_mix(0.0)}
        assert counts == {8}

    def test_rejects_bad_parameters(self):
        catalog = SceneCatalog(FULL_MIX, 16, seed=2)
        with pytest.raises(ValueError):
            catalog.zipf_mix(-0.1)
        with pytest.raises(ValueError):
            catalog.zipf_mix(1.0, total=8)  # cannot cover 16 variants
