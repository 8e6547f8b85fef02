"""Tests for feature-major vs channel-major SRAM layouts (Sec. IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import ChannelMajorLayout, FeatureMajorLayout
from repro.hw import FrameWorkload, GatheringUnitModel, GUConfig


class TestFeatureMajor:
    def test_conflicting_vertices_detected(self):
        """Two lanes hitting different addresses in one bank conflict."""
        layout = FeatureMajorLayout(num_banks=4)
        vertex_ids = np.array([[0], [4]])  # both map to bank 0
        stats = layout.simulate(vertex_ids, concurrent_rays=2)
        assert stats.conflict_rate > 0.0

    def test_identical_vertices_broadcast(self):
        layout = FeatureMajorLayout(num_banks=4)
        vertex_ids = np.array([[8], [8], [8], [8]])
        stats = layout.simulate(vertex_ids, concurrent_rays=4)
        assert stats.conflict_rate == 0.0

    def test_distinct_banks_no_conflict(self):
        layout = FeatureMajorLayout(num_banks=4)
        vertex_ids = np.array([[0], [1], [2], [3]])
        stats = layout.simulate(vertex_ids, concurrent_rays=4)
        assert stats.conflict_rate == 0.0

    def test_random_traffic_conflicts_grow_with_rays(self, rng):
        layout = FeatureMajorLayout(num_banks=16)
        vertex_ids = rng.integers(0, 100000, size=(4096, 8))
        few = layout.simulate(vertex_ids, concurrent_rays=4)
        many = layout.simulate(vertex_ids, concurrent_rays=32)
        assert many.conflict_rate > few.conflict_rate

    def test_fast_matches_reference_simulator(self, rng):
        """Vectorised and loop simulators must agree exactly."""
        from repro.memsys import BankedSRAM
        layout = FeatureMajorLayout(num_banks=8)
        vertex_ids = rng.integers(0, 5000, size=(256, 8))
        banks, addresses = layout.issue_groups(vertex_ids, concurrent_rays=16)
        sram = BankedSRAM(8, 2)
        slow = sram.simulate_groups(banks, addresses)
        fast = sram.simulate_groups_fast(banks, addresses)
        assert slow.actual_cycles == fast.actual_cycles
        assert slow.ideal_cycles == fast.ideal_cycles
        assert slow.conflicted_groups == fast.conflicted_groups


class TestChannelMajor:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_always_conflict_free(self, seed):
        """The headline property: zero conflicts for ANY access pattern."""
        rng = np.random.default_rng(seed)
        vertex_ids = rng.integers(0, 100000, size=(128, 8))
        layout = ChannelMajorLayout(num_banks=32, ports_per_bank=2,
                                    feature_dim=16)
        assert layout.simulate(vertex_ids).conflict_rate == 0.0

    def test_wide_vectors_wrap(self):
        layout = ChannelMajorLayout(num_banks=16, ports_per_bank=2,
                                    feature_dim=32)
        assert layout.wraps == 2

    def test_analytic_cycles_formula(self):
        layout = ChannelMajorLayout(num_banks=32, ports_per_bank=2,
                                    feature_dim=16)
        # 100 samples, 8 vertices each, 2 samples per cycle -> 400 cycles.
        assert layout.analytic_cycles(100, 8) == 400

    def test_analytic_cycles_with_wraps(self):
        layout = ChannelMajorLayout(num_banks=8, ports_per_bank=2,
                                    feature_dim=16)
        assert layout.wraps == 2
        assert layout.analytic_cycles(100, 8) == 800


class TestGatherPlan:
    """The GU prices a gather pass with the channel-major cycle count."""

    def test_plan_cost_tracks_layout(self):
        gu = GatheringUnitModel(16, GUConfig(num_banks=32, ports_per_bank=2))
        cost = gu.gather_cost(FrameWorkload(num_samples=1000,
                                            gather_bytes=8000 * 32))
        assert cost.cycles == gu.layout.analytic_cycles(1000, 8)
        assert cost.time_s == pytest.approx(cost.cycles / gu.config.clock_hz)
        assert cost.sram_bytes == 8000 * 32

    def test_merge(self):
        # The gather cost of two workloads' merged counts is the sum of
        # their costs.
        gu = GatheringUnitModel(16)
        a = FrameWorkload(num_samples=10, gather_bytes=80 * 32)
        b = FrameWorkload(num_samples=20, gather_bytes=160 * 32)
        c = gu.gather_cost(FrameWorkload(num_samples=30,
                                         gather_bytes=240 * 32))
        assert c.cycles == gu.gather_cost(a).cycles + gu.gather_cost(b).cycles
        assert c.sram_bytes == (gu.gather_cost(a).sram_bytes
                                + gu.gather_cost(b).sram_bytes)
