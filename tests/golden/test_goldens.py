"""Golden regressions: one deterministic run per layer, digested.

Locks the determinism contracts the stack is built on:

* the solo SPARW pipeline produces bit-identical frames run to run,
* the batched multi-session engine (with a reference cache) matches its
  recorded frame bytes and batching counters, and
* a seeded cluster simulation reproduces its entire report.

Any bit drift — a refactor that reorders floating-point work, a changed
default, a scheduler tweak — fails here first, with a one-command
regeneration path (``--update-goldens``) when the change is intentional.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster import simulate_cluster
from repro.engine import MultiSessionEngine
from repro.harness import configs
from repro.harness.configs import FAST
from repro.harness.reporting import jsonable
from repro.nerf import HashGridField, VoxelGridField
from repro.scenes import REAL_WORLD_SCENES, SYNTHETIC_SCENES
from repro.workloads import (SharedLRUCache, apply_slo, build_mixed_sessions,
                             get_workload)

FRAMES = 4


class TestSoloPipelineGolden:
    def test_solo_sparw_digest(self, golden, frames_digest, stats_digest):
        result = get_workload("vr-lego").with_overrides(
            frames=FRAMES + 1).run_solo(FAST)
        sparse = result.total_sparse_stats()
        golden("solo_sparw", {
            "frames": result.num_frames,
            "references": result.num_references,
            "frames_sha256": frames_digest(result.frames),
            "stats_sha256": stats_digest({
                "mean_disoccluded": repr(
                    result.mean_disoccluded_fraction()),
                "mean_warped": repr(result.mean_warped_fraction()),
                "sparse_rays": sparse.num_rays,
                "sparse_samples": sparse.num_samples,
            }),
        })


class TestEngineGolden:
    def test_multi_session_engine_digest(self, golden, frames_digest):
        sessions = build_mixed_sessions("vr-lego:2,dolly-chair",
                                        FAST, frames=FRAMES)
        cache = SharedLRUCache(name="golden", max_entries=64)
        result = MultiSessionEngine(sessions,
                                    reference_cache=cache).run()
        golden("engine_mixed", {
            "total_frames": result.total_frames,
            "batch": jsonable(dataclasses.asdict(result.batch)),
            "per_session": {
                s.session_id: frames_digest(s.result.frames)
                for s in result.sessions},
        })


class TestClusterGolden:
    def test_seeded_cluster_report_digest(self, golden, stats_digest):
        report = simulate_cluster(
            "vr-lego:3,dolly-chair:1", FAST, arrivals="poisson",
            rate_hz=2.0, duration_s=4.0, workers=2,
            placement="cache_affinity", queue_limit=3, frames=3, seed=7)
        summary = jsonable(report.summary())
        golden("cluster_seeded", {
            "admitted": report.admitted,
            "rejected": report.rejected,
            "total_frames": report.total_frames,
            "report_sha256": stats_digest(summary),
            "per_worker_sha256": stats_digest(report.per_worker),
        })

    def test_governed_cluster_report_digest(self, golden, stats_digest):
        # The governor's decisions are part of the determinism contract:
        # same seed, same degradations, same report.
        report = simulate_cluster(
            apply_slo("vr-lego:3,dolly-chair:1", 3000.0), FAST,
            arrivals="poisson", rate_hz=30.0, duration_s=0.5, workers=1,
            queue_limit=2, frames=3, seed=7, governor="adaptive")
        golden("cluster_governed", {
            "admitted": report.admitted,
            "rejected": report.rejected,
            "overflow_admissions": report.overflow_admissions,
            "tier_transitions": report.tier_transitions,
            "quality_by_level": jsonable(report.quality_by_level),
            "report_sha256": stats_digest(jsonable(report.summary())),
            "events_sha256": stats_digest(report.governor_events),
        })


# -- baked tables ----------------------------------------------------------------
#
# Recorded on the parent of PR 17 (before the bake was restructured) and
# unchanged since: a bake refactor must reproduce every table bit for bit.

ALL_SCENES = sorted(SYNTHETIC_SCENES) + sorted(REAL_WORLD_SCENES)


def _tables_of(fld) -> list:
    if isinstance(fld, VoxelGridField):
        return [fld.vertex_features]
    if isinstance(fld, HashGridField):
        return [level.table for level in fld.levels]
    return [part for mode in fld.modes
            for part in (mode.vectors, mode.planes, mode.basis)]


def _table_digest(fld) -> str:
    digest = hashlib.sha256()
    for table in _tables_of(fld):
        digest.update(np.ascontiguousarray(table, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture
def bake_digest(monkeypatch):
    """``bake_digest(algorithm, scene, config)`` through the harness's own
    ``_bake_field``, against a private cache so DEFAULT-scale grids are
    neither left in nor evict anything from the shared ``FIELD_CACHE``."""
    monkeypatch.setattr(configs, "FIELD_CACHE",
                        SharedLRUCache(name="golden-tables", max_entries=1))

    def digest(algorithm, scene, config):
        return _table_digest(configs._bake_field(algorithm, scene, config))

    return digest


class TestBakedTableGolden:
    def test_fast_scale_every_scene_and_algorithm(self, golden, bake_digest):
        golden("baked_tables_fast", {
            f"{scene}/{algorithm}": bake_digest(algorithm, scene, FAST)
            for scene in ALL_SCENES for algorithm in configs.ALGORITHMS})

    def test_default_scale_benchmark_scenes(self, golden, bake_digest):
        # The four cold bakes behind solo_dense's setup_s.
        cells = [("lego", "directvoxgo"), ("lego", "instant_ngp"),
                 ("chair", "directvoxgo"), ("ignatius", "directvoxgo")]
        golden("baked_tables_default", {
            f"{scene}/{algorithm}": bake_digest(algorithm, scene,
                                                configs.DEFAULT)
            for scene, algorithm in cells})
