"""Tests for remote rendering, rival accelerators, and scheduling timelines."""

import pytest

from repro.hw import (
    FrameWorkload,
    GatherTraffic,
    NGPCModel,
    NeuRexModel,
    RemoteConfig,
    RemoteScenario,
    SoCModel,
    SparwWorkloads,
    overlapped_timeline,
    serialized_timeline,
)


@pytest.fixture
def full_frame():
    return FrameWorkload(
        num_rays=9216, num_samples=400_000, mlp_macs=400_000 * 3000,
        gather_accesses=3_200_000, gather_bytes=3_200_000 * 32,
        baseline_traffic=GatherTraffic(5e6, 45e6),
        streaming_traffic=GatherTraffic(8e6, 0.0),
        rit_bytes=400_000 * 48, gather_conflict_slowdown=2.5,
    )


@pytest.fixture
def workloads(full_frame):
    target = full_frame.scaled(0.04)
    target.warp_points = 9216
    return SparwWorkloads(target=target, reference=full_frame, window=16)


class TestRemote:
    def test_baseline_remote_has_lowest_device_energy(self, full_frame,
                                                      workloads):
        """Fig. 19b's observation: offloading everything minimises energy."""
        soc = SoCModel(16)
        remote = RemoteScenario(soc)
        frame_bytes = 96 * 96 * 4
        base = remote.price_baseline_remote(full_frame, frame_bytes)
        cicero = remote.price_sparw_remote(workloads, "cicero", frame_bytes)
        assert base.energy_j < cicero.energy_j

    def test_cicero_remote_faster_than_baseline_remote(self, full_frame,
                                                       workloads):
        soc = SoCModel(16)
        remote = RemoteScenario(soc)
        frame_bytes = 96 * 96 * 4
        base = remote.price_baseline_remote(full_frame, frame_bytes)
        cicero = remote.price_sparw_remote(workloads, "cicero", frame_bytes)
        assert cicero.time_s < base.time_s

    def test_compression_shrinks_link_bytes(self):
        config = RemoteConfig(compression_ratio=20.0)
        assert config.frame_bytes_on_link(2000) == pytest.approx(100.0)

    def test_reference_overlap_hides_latency(self, full_frame, workloads):
        """With a large window the remote reference fully hides."""
        soc = SoCModel(16)
        remote = RemoteScenario(soc)
        cost = remote.price_sparw_remote(workloads, "cicero", 96 * 96 * 4)
        target = soc.price_nerf(workloads.target, "cicero")
        assert cost.time_s >= target.time_s  # never faster than local path


class TestRivals:
    def test_cicero_no_sparw_beats_neurex(self, full_frame):
        """Paper: ~2x over NeuRex from conflict elimination."""
        soc = SoCModel(16)
        neurex = NeuRexModel(16).price_frame(full_frame)
        cicero = soc.price_nerf(full_frame, "cicero")
        assert cicero.time_s < neurex.time_s

    def test_ngpc_close_to_cicero_no_sparw(self, full_frame):
        soc = SoCModel(16)
        ngpc = NGPCModel(16).price_frame(full_frame)
        cicero = soc.price_nerf(full_frame, "cicero")
        ratio = ngpc.time_s / cicero.time_s
        assert 0.5 < ratio < 2.5

    def test_ngpc_has_no_dram_gather_traffic(self, full_frame):
        cost = NGPCModel(16).price_frame(full_frame)
        assert cost.energy_parts["dram"] == pytest.approx(0.0)

    def test_neurex_pays_conflicts(self, full_frame):
        slow = NeuRexModel(16).price_frame(full_frame)
        no_conflicts = FrameWorkload(**{**full_frame.__dict__,
                                        "gather_conflict_slowdown": 1.0})
        fast = NeuRexModel(16).price_frame(no_conflicts)
        # Gather-stage energy dilates by the conflict slowdown; latency only
        # when the engine (not DRAM) is the gather bottleneck.
        assert slow.energy_parts["gather"] > fast.energy_parts["gather"]
        assert slow.time_s >= fast.time_s


class TestTimelines:
    def test_serialized_boundary_stall(self):
        result = serialized_timeline(target_time=0.01, reference_time=0.2,
                                     window=10)
        assert result.worst_frame_time == pytest.approx(0.21)
        assert result.reference_stall == pytest.approx(0.2)

    def test_overlapped_shared_mean_matches_serialized(self):
        ser = serialized_timeline(0.01, 0.2, 10)
        ovl = overlapped_timeline(0.01, 0.2, 10, shared_resources=True)
        assert ovl.mean_frame_time == pytest.approx(ser.mean_frame_time)
        assert ovl.worst_frame_time < ser.worst_frame_time

    def test_overlapped_dedicated_hides_reference(self):
        result = overlapped_timeline(0.01, 0.05, 10, shared_resources=False)
        assert result.mean_frame_time == pytest.approx(0.01)

    def test_overlapped_dedicated_reference_bound(self):
        result = overlapped_timeline(0.01, 0.5, 10, shared_resources=False)
        assert result.mean_frame_time == pytest.approx(0.05)

    def test_fps(self):
        assert serialized_timeline(0.01, 0.0, 1).fps == pytest.approx(100.0)
