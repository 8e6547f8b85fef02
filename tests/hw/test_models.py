"""Tests for GPU/NPU/GU component models."""

import pytest

from repro.hw import (
    FrameWorkload,
    GatherTraffic,
    GatheringUnitModel,
    GPUModel,
    GUConfig,
    NPUConfig,
    NPUModel,
    SoCModel,
)


@pytest.fixture
def workload():
    return FrameWorkload(
        num_rays=1000,
        num_samples=50_000,
        mlp_macs=50_000 * 3000,
        gather_accesses=400_000,
        gather_bytes=400_000 * 32,
        baseline_traffic=GatherTraffic(1e6, 9e6),
        streaming_traffic=GatherTraffic(4e6, 0.0),
        rit_bytes=50_000 * 48,
        gather_conflict_slowdown=2.0,
    )


class TestGPUModel:
    def test_gathering_dominates_breakdown(self, workload):
        gpu = GPUModel()
        breakdown = gpu.frame_breakdown(workload)
        assert breakdown.gathering > breakdown.indexing
        assert breakdown.gathering > 0.4 * breakdown.total

    def test_conflicts_slow_gathering(self, workload):
        gpu = GPUModel()
        slow = gpu.gathering_time(workload)
        fast_wl = FrameWorkload(**{**workload.__dict__,
                                   "gather_conflict_slowdown": 1.0})
        assert gpu.gathering_time(fast_wl) < slow

    def test_random_traffic_slows_gathering(self, workload):
        gpu = GPUModel()
        streaming_wl = FrameWorkload(**{**workload.__dict__,
                                        "baseline_traffic": GatherTraffic(10e6, 0.0)})
        assert gpu.gathering_time(streaming_wl) < gpu.gathering_time(workload)

    def test_indexing_charges_rays_and_samples(self, workload):
        gpu = GPUModel()
        assert gpu.indexing_time(workload) == pytest.approx(
            workload.num_rays * gpu.config.index_ray_cost_s
            + workload.num_samples * gpu.config.index_sample_cost_s)
        assert gpu.indexing_time(FrameWorkload()) == 0.0

    def test_warp_cost_matches_paper_scale(self):
        """Paper: ~1 ms per million warped points on the mobile GPU."""
        gpu = GPUModel()
        wl = FrameWorkload(warp_points=1_000_000)
        assert gpu.warping_time(wl) == pytest.approx(1e-3, rel=0.5)

    def test_energy_includes_dram(self, workload):
        cost = SoCModel().price_nerf(workload, "gpu")
        gpu = GPUModel()
        power_only = (gpu.frame_breakdown(workload).total
                      * gpu.config.average_power_w)
        assert cost.energy_parts["dram"] > 0.0
        assert cost.energy_j > power_only

    def test_breakdown_merge(self, workload):
        gpu = GPUModel()
        b = gpu.frame_breakdown(workload)
        double = b.merge(b)
        assert double.total == pytest.approx(2 * b.total)


class TestNPUModel:
    def test_faster_than_gpu_for_mlp(self, workload):
        assert (NPUModel().computation_time(workload)
                < GPUModel().computation_time(workload))

    def test_mac_rate_from_array(self):
        config = NPUConfig(array_rows=24, array_cols=24, clock_hz=1e9,
                           utilization=1.0)
        assert config.effective_mac_rate == pytest.approx(576e9)

    def test_cycles_consistent(self, workload):
        npu = NPUModel()
        cycles = npu.computation_time(workload) * npu.config.clock_hz
        busy_macs = cycles * npu.config.macs_per_cycle * npu.config.utilization
        assert busy_macs == pytest.approx(workload.mlp_macs, rel=1e-9)

    def test_energy_positive(self, workload):
        assert NPUModel().computation_energy(workload) > 0.0


class TestGUModel:
    def test_gather_cycles_scale_with_samples(self, workload):
        gu = GatheringUnitModel()
        half = FrameWorkload(**{**workload.__dict__,
                                "num_samples": workload.num_samples // 2})
        assert gu.gather_cost(half).cycles < gu.gather_cost(workload).cycles

    def test_gu_beats_gpu_gather(self, workload):
        gu = GatheringUnitModel()
        gpu = GPUModel()
        assert gu.gather_cost(workload).time_s < gpu.gathering_time(workload)

    def test_vft_energy_grows_with_size(self, workload):
        small = GatheringUnitModel(GUConfig(vft_bytes=32 * 1024))
        big = GatheringUnitModel(GUConfig(vft_bytes=256 * 1024))
        assert big.gather_cost(workload).energy_j > (
            small.gather_cost(workload).energy_j)

    def test_vft_energy_floor_below_8kb(self, workload):
        tiny = GatheringUnitModel(GUConfig(vft_bytes=4 * 1024))
        small = GatheringUnitModel(GUConfig(vft_bytes=8 * 1024))
        ratio = (tiny.gather_cost(workload).energy_j
                 / small.gather_cost(workload).energy_j)
        assert ratio > 0.85  # flattens out, no free lunch from shrinking

    def test_area_overhead_matches_paper(self):
        """Paper: 44 KB of SRAM -> ~0.048 mm^2 at 12 nm."""
        gu = GatheringUnitModel(GUConfig())
        assert gu.area_overhead_mm2() == pytest.approx(0.048, rel=0.15)

    def test_rit_buffer_size(self):
        config = GUConfig()
        assert config.rit_buffer_bytes == 2 * 128 * 48  # two 6 KB halves
