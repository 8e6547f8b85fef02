"""Tests for SoC variant pricing and SPARW sequencing."""

import pytest

from repro.hw import FrameWorkload, GatherTraffic, SoCModel, SparwWorkloads


@pytest.fixture
def full_frame():
    return FrameWorkload(
        num_rays=9216,
        num_samples=400_000,
        mlp_macs=400_000 * 3000,
        gather_accesses=3_200_000,
        gather_bytes=3_200_000 * 32,
        baseline_traffic=GatherTraffic(5e6, 45e6),
        streaming_traffic=GatherTraffic(8e6, 0.0),
        rit_bytes=400_000 * 48,
        gather_conflict_slowdown=2.0,
    )


@pytest.fixture
def sparw_workloads(full_frame):
    target = full_frame.scaled(0.04)  # ~4% sparse pixels
    target.warp_points = 9216
    return SparwWorkloads(target=target, reference=full_frame, window=16)


@pytest.fixture
def soc():
    return SoCModel(16)


class TestVariantOrdering:
    def test_paper_ordering_of_variants(self, soc, full_frame,
                                        sparw_workloads):
        """baseline > sparw > sparw_fs > cicero in latency (Fig. 19a)."""
        base = soc.price_nerf(full_frame, "baseline").time_s
        sparw = soc.price_sparw_local(sparw_workloads, "sparw").time_s
        fs = soc.price_sparw_local(sparw_workloads, "sparw_fs").time_s
        cicero = soc.price_sparw_local(sparw_workloads, "cicero").time_s
        assert base > sparw > fs > cicero

    def test_energy_ordering(self, soc, full_frame, sparw_workloads):
        base = soc.price_nerf(full_frame, "baseline").energy_j
        sparw = soc.price_sparw_local(sparw_workloads, "sparw").energy_j
        cicero = soc.price_sparw_local(sparw_workloads, "cicero").energy_j
        assert base > sparw > cicero

    def test_npu_beats_pure_gpu(self, soc, full_frame):
        gpu = soc.price_nerf(full_frame, "gpu")
        npu = soc.price_nerf(full_frame, "baseline")
        assert npu.time_s < gpu.time_s

    def test_sparw_speedup_tracks_window(self, soc, full_frame,
                                         sparw_workloads):
        base = soc.price_nerf(full_frame, "baseline").time_s
        speedup = base / soc.price_sparw_local(sparw_workloads, "sparw").time_s
        # With a window of 16 and ~4% sparse work, speed-up lands near
        # 16 / (1 + 16*0.04) ~ 9.7; allow a generous band.
        assert 4.0 < speedup < 16.0

    def test_unknown_variant_rejected(self, soc, full_frame):
        with pytest.raises(ValueError):
            soc.price_nerf(full_frame, "warp9")


class TestCostStructure:
    def test_stage_times_present(self, soc, full_frame):
        cost = soc.price_nerf(full_frame, "baseline")
        for key in ("indexing", "gathering", "computation", "dram"):
            assert key in cost.stage_times

    def test_energy_parts_sum(self, soc, full_frame):
        cost = soc.price_nerf(full_frame, "cicero")
        assert cost.energy_j == pytest.approx(sum(cost.energy_parts.values()))

    def test_fs_reduces_dram_energy(self, soc, full_frame):
        base = soc.price_nerf(full_frame, "baseline")
        fs = soc.price_nerf(full_frame, "sparw_fs")
        assert fs.energy_parts["dram"] < base.energy_parts["dram"]

    def test_gu_removes_gather_from_gpu(self, soc, full_frame):
        base = soc.price_nerf(full_frame, "baseline")
        cicero = soc.price_nerf(full_frame, "cicero")
        assert cicero.stage_times["gathering"] < base.stage_times["gathering"]
        assert cicero.energy_parts["gpu"] < base.energy_parts["gpu"]

    def test_merge_and_scale(self, soc, full_frame):
        cost = soc.price_nerf(full_frame, "baseline")
        double = cost.merge(cost)
        assert double.time_s == pytest.approx(2 * cost.time_s)
        half = cost.scaled(0.5)
        assert half.energy_j == pytest.approx(0.5 * cost.energy_j)


class TestWorkloadAlgebra:
    def test_scaled_counts(self, full_frame):
        half = full_frame.scaled(0.5)
        assert half.num_samples == full_frame.num_samples // 2
        assert half.baseline_traffic.total_bytes == pytest.approx(
            full_frame.baseline_traffic.total_bytes / 2)
