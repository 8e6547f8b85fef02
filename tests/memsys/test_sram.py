"""Tests for the banked-SRAM conflict simulator."""

import numpy as np
import pytest

from repro.memsys import BankConflictStats, BankedSRAM


class TestSimulateGroups:
    def test_no_requests(self):
        sram = BankedSRAM(4, 1)
        stats = sram.simulate_groups(np.full((2, 3), -1), np.zeros((2, 3)))
        assert stats.actual_cycles == 0
        assert stats.conflict_rate == 0.0

    def test_single_request_one_cycle(self):
        sram = BankedSRAM(4, 1)
        stats = sram.simulate_groups(np.array([[2, -1]]), np.array([[7, 0]]))
        assert stats.actual_cycles == 1
        assert stats.conflict_rate == 0.0

    def test_same_bank_distinct_addresses_serialize(self):
        sram = BankedSRAM(4, 1)
        stats = sram.simulate_groups(np.array([[1, 1, 1]]),
                                     np.array([[10, 11, 12]]))
        assert stats.actual_cycles == 3
        assert stats.conflicted_groups == 1

    def test_broadcast_same_address(self):
        sram = BankedSRAM(4, 1)
        stats = sram.simulate_groups(np.array([[1, 1, 1]]),
                                     np.array([[10, 10, 10]]))
        assert stats.actual_cycles == 1

    def test_ports_divide_serialization(self):
        sram = BankedSRAM(4, 2)
        stats = sram.simulate_groups(np.array([[1, 1, 1, 1]]),
                                     np.array([[1, 2, 3, 4]]))
        assert stats.actual_cycles == 2

    def test_cycles_is_max_over_banks(self):
        sram = BankedSRAM(4, 1)
        # Bank 0 gets 2 distinct, bank 1 gets 1 -> 2 cycles.
        stats = sram.simulate_groups(np.array([[0, 0, 1]]),
                                     np.array([[1, 2, 3]]))
        assert stats.actual_cycles == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BankedSRAM(0, 1)
        with pytest.raises(ValueError):
            BankedSRAM(4, 0)

    def test_shape_mismatch_rejected(self):
        sram = BankedSRAM(4, 1)
        with pytest.raises(ValueError):
            sram.simulate_groups(np.zeros((2, 3)), np.zeros((2, 4)))


class TestStats:
    def test_conflict_rate_definition(self):
        stats = BankConflictStats(issue_groups=10, ideal_cycles=10,
                                  actual_cycles=20, conflicted_groups=5)
        assert stats.conflict_rate == pytest.approx(0.5)
        assert stats.slowdown == pytest.approx(2.0)

    def test_merge(self):
        a = BankConflictStats(2, 2, 4, 1)
        b = BankConflictStats(3, 3, 3, 0)
        c = a.merge(b)
        assert c.issue_groups == 5
        assert c.actual_cycles == 7
        assert c.slowdown == pytest.approx(7.0 / 5.0)

    def test_empty_stats_safe(self):
        stats = BankConflictStats(0, 0, 0, 0)
        assert stats.conflict_rate == 0.0
        assert stats.slowdown == 1.0
