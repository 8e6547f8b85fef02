"""Tests for the Ray Index Table."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import RIT_ENTRY_BYTES, RayIndexTable


class TestBuild:
    def test_groups_by_mvoxel(self):
        rit = RayIndexTable.build(np.array([2, 0, 2, 1, 0]))
        assert list(rit.mvoxel_ids) == [0, 1, 2]
        np.testing.assert_array_equal(np.sort(rit.samples_for(0)), [1, 4])
        np.testing.assert_array_equal(rit.samples_for(1), [3])
        np.testing.assert_array_equal(np.sort(rit.samples_for(2)), [0, 2])

    def test_outside_samples_dropped(self):
        rit = RayIndexTable.build(np.array([-1, 0, -1, 0]))
        assert rit.num_scheduled_samples == 2
        assert len(rit) == 1

    def test_empty_input(self):
        rit = RayIndexTable.build(np.array([], dtype=np.int64))
        assert len(rit) == 0
        assert rit.num_scheduled_samples == 0
        assert rit.table_bytes == 0

    def test_all_same_mvoxel(self):
        rit = RayIndexTable.build(np.full(10, 7))
        assert len(rit) == 1
        assert rit.mvoxel_ids[0] == 7
        assert len(rit.samples_for(0)) == 10

    def test_entry_bytes_per_paper(self):
        assert RIT_ENTRY_BYTES == 48
        rit = RayIndexTable.build(np.array([0, 1, 2]))
        assert rit.table_bytes == 3 * 48

    def test_iter_entries_ascending(self):
        rit = RayIndexTable.build(np.array([5, 3, 9, 3, 5]))
        order = [mid for mid, _ in rit.iter_entries()]
        assert order == sorted(order)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-1, 20), min_size=1, max_size=200))
    def test_schedule_is_permutation_of_valid_samples(self, mvoxels):
        arr = np.array(mvoxels)
        rit = RayIndexTable.build(arr)
        order = rit.order
        valid = np.nonzero(arr >= 0)[0]
        np.testing.assert_array_equal(np.sort(order), valid)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_streaming_order_is_mvoxel_sorted(self, mvoxels):
        arr = np.array(mvoxels)
        rit = RayIndexTable.build(arr)
        keys = arr[rit.order]
        assert (np.diff(keys) >= 0).all()
