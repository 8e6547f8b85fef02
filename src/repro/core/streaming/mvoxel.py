"""MVoxel partitioning: grouping voxels into buffer-sized macro blocks.

Sec. IV-A of the paper groups the voxel grid into *MVoxels* whose vertex
features are stored contiguously in DRAM, sized so one MVoxel fits the
on-chip buffer.  Streaming MVoxels sequentially makes all feature traffic
sequential, and each feature byte is read (at most) once.

Deviation noted in DESIGN.md: a sample's eight vertices can straddle MVoxel
boundaries, so our DRAM layout stores each MVoxel *with its one-vertex halo*
(about ``((s+1)/s)^3`` storage overhead for side ``s``).  Each stored byte is
still read at most once and reads stay fully sequential; the paper's
no-duplication claim glosses the same boundary issue.

The partitioner is dimension-generic so the 2-D factor planes of TensoRF
("MTiles") reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MVoxelLayout"]


@dataclass
class MVoxelLayout:
    """Partition of an N-D cell grid into macro blocks.

    Parameters
    ----------
    grid_shape:
        Cells per axis of the underlying grid.
    entry_bytes:
        Bytes per vertex feature entry.
    buffer_bytes:
        On-chip buffer capacity one MVoxel (vertices incl. halo) must fit.
    side:
        Macro-block side in cells; chosen automatically (largest power of
        two that fits the buffer) when omitted.
    """

    grid_shape: tuple
    entry_bytes: int
    buffer_bytes: int
    side: int | None = None

    def __post_init__(self):
        self.grid_shape = tuple(int(s) for s in self.grid_shape)
        self.ndim = len(self.grid_shape)
        if self.side is None:
            self.side = self._auto_side()
        if self.mvoxel_bytes > self.buffer_bytes:
            raise ValueError(
                f"MVoxel of side {self.side} ({self.mvoxel_bytes} B) exceeds "
                f"buffer ({self.buffer_bytes} B)")
        self.blocks_per_axis = tuple(
            -(-s // self.side) for s in self.grid_shape)  # ceil division

    def _auto_side(self) -> int:
        side = 1
        while True:
            nxt = side * 2
            vertices = (nxt + 1) ** self.ndim
            if vertices * self.entry_bytes > self.buffer_bytes:
                return side
            if nxt >= max(self.grid_shape):
                return min(nxt, max(self.grid_shape))
            side = nxt

    # -- geometry ----------------------------------------------------------------

    @property
    def vertices_per_mvoxel(self) -> int:
        """Vertex entries stored per MVoxel (its cells' corners, with halo)."""
        return (self.side + 1) ** self.ndim

    @property
    def mvoxel_bytes(self) -> int:
        return self.vertices_per_mvoxel * self.entry_bytes

    @property
    def num_mvoxels(self) -> int:
        out = 1
        for b in self.blocks_per_axis:
            out *= b
        return out

    @property
    def storage_overhead(self) -> float:
        """Halo-duplication factor versus the raw vertex grid."""
        raw_vertices = 1
        for s in self.grid_shape:
            raw_vertices *= s + 1
        return (self.num_mvoxels * self.vertices_per_mvoxel) / raw_vertices

    # -- mapping ------------------------------------------------------------------

    def mvoxel_of_cells(self, cell_ids: np.ndarray) -> np.ndarray:
        """Map flat cell ids to flat MVoxel ids (-1 passes through)."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        valid = cell_ids >= 0
        out = np.full(cell_ids.shape, -1, dtype=np.int64)
        if not valid.any():
            return out
        ids = cell_ids[valid]
        coords = []
        rem = ids
        for extent in reversed(self.grid_shape):
            coords.append(rem % extent)
            rem = rem // extent
        coords = coords[::-1]  # now axis-ordered
        block = np.zeros_like(ids)
        for axis in range(self.ndim):
            block = block * self.blocks_per_axis[axis] + coords[axis] // self.side
        out[valid] = block
        return out
