"""Tests for MVoxel partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import MVoxelLayout


class TestAutoSizing:
    def test_fits_buffer(self):
        layout = MVoxelLayout(grid_shape=(64, 64, 64), entry_bytes=32,
                              buffer_bytes=32 * 1024)
        assert layout.mvoxel_bytes <= 32 * 1024

    def test_paper_sizing_8cubed(self):
        """32 KB buffer, 32 B entries -> 8^3-cell MVoxels (9^3 vertices)."""
        layout = MVoxelLayout(grid_shape=(64, 64, 64), entry_bytes=32,
                              buffer_bytes=32 * 1024)
        assert layout.side == 8
        assert layout.vertices_per_mvoxel == 9**3

    def test_explicit_side_too_big_rejected(self):
        with pytest.raises(ValueError):
            MVoxelLayout(grid_shape=(64, 64, 64), entry_bytes=32,
                         buffer_bytes=1024, side=16)

    def test_2d_grid(self):
        layout = MVoxelLayout(grid_shape=(64, 64), entry_bytes=48,
                              buffer_bytes=32 * 1024)
        assert layout.ndim == 2
        assert layout.mvoxel_bytes <= 32 * 1024


class TestMapping:
    @pytest.fixture
    def layout(self):
        return MVoxelLayout(grid_shape=(16, 16, 16), entry_bytes=32,
                            buffer_bytes=32 * 1024, side=4)

    def test_origin_cell_in_mvoxel_zero(self, layout):
        assert layout.mvoxel_of_cells(np.array([0]))[0] == 0

    def test_cells_in_same_block_share_mvoxel(self, layout):
        # Cells (0,0,0) and (3,3,3) are both in block 0 with side 4.
        flat_a = 0
        flat_b = 3 * 16 * 16 + 3 * 16 + 3
        ids = layout.mvoxel_of_cells(np.array([flat_a, flat_b]))
        assert ids[0] == ids[1]

    def test_neighbor_blocks_differ(self, layout):
        flat_a = 0
        flat_b = 4  # z = 4 -> next block along z
        ids = layout.mvoxel_of_cells(np.array([flat_a, flat_b]))
        assert ids[0] != ids[1]

    def test_negative_cell_passthrough(self, layout):
        ids = layout.mvoxel_of_cells(np.array([-1, 0]))
        assert ids[0] == -1 and ids[1] >= 0

    def test_num_mvoxels(self, layout):
        assert layout.num_mvoxels == 4**3

    @settings(max_examples=30, deadline=None)
    @given(cell=st.integers(0, 16**3 - 1))
    def test_mvoxel_ids_in_range(self, cell):
        layout = MVoxelLayout(grid_shape=(16, 16, 16), entry_bytes=32,
                              buffer_bytes=32 * 1024, side=4)
        mid = layout.mvoxel_of_cells(np.array([cell]))[0]
        assert 0 <= mid < layout.num_mvoxels

    @settings(max_examples=20, deadline=None)
    @given(cell=st.integers(0, 16**3 - 1))
    def test_block_coordinates_consistent(self, cell):
        """The block of a cell must equal elementwise cell_coord // side."""
        layout = MVoxelLayout(grid_shape=(16, 16, 16), entry_bytes=32,
                              buffer_bytes=32 * 1024, side=4)
        z = cell % 16
        y = (cell // 16) % 16
        x = cell // 256
        expected = (x // 4) * 16 + (y // 4) * 4 + (z // 4)
        assert layout.mvoxel_of_cells(np.array([cell]))[0] == expected


class TestStorageOverhead:
    def test_halo_overhead_bounded(self):
        layout = MVoxelLayout(grid_shape=(64, 64, 64), entry_bytes=32,
                              buffer_bytes=32 * 1024)
        # (9/8)^3 halo duplication ~= 1.42x vs the raw (65/65...) grid.
        assert 1.0 < layout.storage_overhead < 1.7

    def test_single_block_grid_no_overhead(self):
        layout = MVoxelLayout(grid_shape=(4, 4, 4), entry_bytes=32,
                              buffer_bytes=32 * 1024, side=4)
        assert layout.storage_overhead == pytest.approx(1.0)
