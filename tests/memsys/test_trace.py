"""Tests for access traces and streaming analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import (
    AccessTrace,
    analyze_streaming,
    interleaved_gather_trace,
    trace_from_gather_group,
)


def _trace(addresses, size=32):
    addresses = np.asarray(addresses, dtype=np.int64)
    return AccessTrace(addresses=addresses,
                       sizes=np.full(addresses.shape, size, dtype=np.int64))


class TestAccessTrace:
    def test_total_bytes(self):
        assert _trace([0, 64, 128]).total_bytes == 96

    def test_unique_bytes_counts_blocks(self):
        trace = _trace([0, 0, 0, 64])
        assert trace.unique_bytes(granularity=64) == 128

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AccessTrace(addresses=np.zeros(3, dtype=np.int64),
                        sizes=np.zeros(2, dtype=np.int64))


class TestStreamingAnalysis:
    def test_sequential_is_streaming(self):
        trace = _trace([0, 32, 64, 96])
        analysis = analyze_streaming(trace)
        assert analysis.non_streaming_fraction == pytest.approx(0.25)  # head

    def test_scattered_is_random(self):
        trace = _trace([0, 100000, 200000, 50000])
        analysis = analyze_streaming(trace)
        assert analysis.streaming_fraction == 0.0

    def test_window_tolerates_small_skips(self):
        # Gaps of 64 bytes continue the stream; a 2 KB gap opens a new row.
        trace = _trace([0, 96, 192, 192 + 32 + 2048])
        analysis = analyze_streaming(trace)
        assert analysis.streaming_accesses == 2

    def test_backward_jump_breaks_stream(self):
        trace = _trace([1000, 0])
        analysis = analyze_streaming(trace)
        assert analysis.streaming_accesses == 0

    def test_run_openers_are_charged_as_random_bytes(self):
        trace = AccessTrace(addresses=np.array([0, 32, 4096, 4096 + 64]),
                            sizes=np.array([32, 16, 64, 8]))
        analysis = analyze_streaming(trace)
        assert analysis.num_accesses == 4
        assert analysis.streaming_accesses == 2
        assert analysis.total_bytes == 120
        assert analysis.streaming_bytes == 16 + 8
        assert analysis.non_streaming_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        analysis = analyze_streaming(_trace([]))
        assert analysis.streaming_fraction == 1.0
        assert analysis.total_bytes == 0


class TestCoalescing:
    def test_merges_same_block(self):
        trace = _trace([0, 32, 0, 32], size=32)
        merged = trace.coalesced(block_bytes=64)
        assert len(merged) == 1
        assert merged.sizes[0] == 64

    def test_merges_adjacent_blocks(self):
        trace = _trace([0, 64, 128], size=32)
        merged = trace.coalesced(block_bytes=64)
        assert len(merged) == 1

    def test_keeps_distant_accesses(self):
        trace = _trace([0, 4096], size=32)
        merged = trace.coalesced(block_bytes=64)
        assert len(merged) == 2

    def test_empty_trace_stays_empty(self):
        coalesced = _trace([]).coalesced(64)
        assert len(coalesced) == 0 and coalesced.total_bytes == 0

    def test_preserves_total_coverage(self):
        rng = np.random.default_rng(0)
        trace = _trace(rng.integers(0, 10000, size=500) * 32, size=32)
        merged = trace.coalesced(64)
        assert merged.unique_bytes(64) == trace.unique_bytes(64)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
    def test_never_increases_access_count(self, raw):
        trace = _trace(np.array(raw) * 16, size=16)
        merged = trace.coalesced(64)
        assert len(merged) <= len(trace)


class TestGatherTraces:
    def test_trace_from_group_flattens_row_major(self, gather_groups):
        group = gather_groups[0]
        trace = trace_from_gather_group(group)
        assert len(trace) == group.num_samples * group.vertices_per_sample
        expected_first = group.base_address + group.vertex_ids[0, 0] * group.entry_bytes
        assert trace.addresses[0] == expected_first

    def test_interleaved_trace_covers_all_groups(self, gather_groups):
        trace = interleaved_gather_trace(gather_groups)
        total = sum(g.num_samples * g.vertices_per_sample
                    for g in gather_groups)
        assert len(trace) == total

    def test_interleaved_empty(self):
        trace = interleaved_gather_trace([])
        assert len(trace) == 0
