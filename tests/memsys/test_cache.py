"""Tests for LRU and Belady cache simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import simulate_belady, simulate_lru


class TestLRU:
    def test_cold_misses_only(self):
        addrs = np.arange(10) * 64
        stats = simulate_lru(addrs, capacity_bytes=10 * 64, block_bytes=64)
        assert stats.misses == 10

    def test_perfect_reuse(self):
        addrs = np.array([0, 0, 0, 0])
        stats = simulate_lru(addrs, capacity_bytes=64, block_bytes=64)
        assert stats.misses == 1
        assert stats.miss_rate == pytest.approx(0.25)

    def test_capacity_thrashing(self):
        # Cyclic access to N+1 blocks with capacity N thrashes LRU fully.
        addrs = np.tile(np.arange(5) * 64, 4)
        stats = simulate_lru(addrs, capacity_bytes=4 * 64, block_bytes=64)
        assert stats.miss_rate == pytest.approx(1.0)

    def test_same_block_aliasing(self):
        addrs = np.array([0, 16, 32, 48])  # one 64 B block
        stats = simulate_lru(addrs, capacity_bytes=64, block_bytes=64)
        assert stats.misses == 1

    def test_empty_trace_has_no_misses(self):
        stats = simulate_lru(np.zeros(0, dtype=np.int64), 1024, block_bytes=64)
        assert (stats.accesses, stats.misses) == (0, 0)
        assert stats.miss_rate == 0.0

    def test_miss_bytes(self):
        addrs = np.arange(4) * 64
        stats = simulate_lru(addrs, capacity_bytes=4 * 64, block_bytes=64)
        assert stats.miss_bytes == 4 * 64


class TestBelady:
    def test_beats_lru_on_cyclic_pattern(self):
        addrs = np.tile(np.arange(5) * 64, 6)
        lru = simulate_lru(addrs, capacity_bytes=4 * 64, block_bytes=64)
        opt = simulate_belady(addrs, capacity_bytes=4 * 64, block_bytes=64)
        assert opt.misses < lru.misses

    def test_compulsory_misses_identical(self):
        addrs = np.arange(8) * 64
        lru = simulate_lru(addrs, capacity_bytes=1024, block_bytes=64)
        opt = simulate_belady(addrs, capacity_bytes=1024, block_bytes=64)
        assert lru.misses == opt.misses == 8

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
           st.integers(1, 8))
    def test_belady_never_worse_than_lru(self, blocks, capacity):
        """The oracle property: Belady is optimal, so misses(OPT) <= misses(LRU)."""
        addrs = np.array(blocks) * 64
        lru = simulate_lru(addrs, capacity_bytes=capacity * 64, block_bytes=64)
        opt = simulate_belady(addrs, capacity_bytes=capacity * 64,
                              block_bytes=64)
        assert opt.misses <= lru.misses

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    def test_misses_at_least_unique_blocks(self, blocks):
        addrs = np.array(blocks) * 64
        opt = simulate_belady(addrs, capacity_bytes=8 * 64, block_bytes=64)
        assert opt.misses >= len(set(blocks)) if len(set(blocks)) > 8 else True
        assert opt.misses >= min(len(set(blocks)), opt.misses)

    def test_known_optimal_sequence(self):
        # Classic example: A B C A B with capacity 2.
        # OPT: miss A, miss B, miss C (evict B, keep A), hit A, miss B = 4.
        addrs = np.array([0, 1, 2, 0, 1]) * 64
        opt = simulate_belady(addrs, capacity_bytes=2 * 64, block_bytes=64)
        assert opt.misses == 4
