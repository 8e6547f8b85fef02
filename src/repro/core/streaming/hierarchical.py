"""Memory-centric execution order for one streamable gather group.

Sec. IV-A of the paper: a ray group's samples are processed MVoxel by
MVoxel, so each MVoxel's features are fetched into the on-chip buffer once.
:func:`streaming_execution_order` returns that permutation; tests use it to
show the reordering never changes what a field computes.
"""

from __future__ import annotations

import numpy as np

from .mvoxel import MVoxelLayout
from .rit import RayIndexTable

__all__ = ["streaming_execution_order"]


def streaming_execution_order(group) -> np.ndarray:
    """Memory-centric sample permutation for one streamable group.

    Returns sample indices ordered by ascending MVoxel — the order in which
    the Gathering Unit would actually process them.  Samples outside the
    grid are appended at the end (they gather nothing).  Used by tests to
    verify that reordering never changes rendered results.
    """
    layout = MVoxelLayout(grid_shape=group.grid_shape,
                          entry_bytes=group.entry_bytes,
                          buffer_bytes=32 * 1024)  # the VFT buffer
    sample_mvoxels = layout.mvoxel_of_cells(group.cell_ids)
    rit = RayIndexTable.build(sample_mvoxels)
    scheduled = rit.order
    outside = np.nonzero(np.asarray(group.cell_ids) < 0)[0]
    return np.concatenate([scheduled, outside])
