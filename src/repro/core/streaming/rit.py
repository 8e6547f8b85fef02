"""Ray Index Table (RIT): the sample-to-MVoxel schedule of Sec. IV-A.

The RIT records, for every MVoxel, the ids of the ray samples whose feature
vectors live there.  During memory-centric rendering the table is walked in
MVoxel order: each MVoxel is streamed on-chip once and all of its pending
samples are gathered before it is discarded.

Per the paper's hardware sizing, one RIT entry carries a ray-sample's eight
vertex indices and interpolation weights (48 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RayIndexTable", "RIT_ENTRY_BYTES"]

# 8 x (4-byte vertex index + 2-byte weight), per Sec. V.
RIT_ENTRY_BYTES = 48


@dataclass
class RayIndexTable:
    """Samples grouped by the MVoxel that serves them.

    ``order`` is a permutation of sample indices sorted by MVoxel;
    ``mvoxel_ids``/``offsets`` delimit each MVoxel's slice of ``order``.
    Samples with no MVoxel (outside the grid) are excluded.
    """

    order: np.ndarray  # (S,) sample indices grouped by mvoxel
    mvoxel_ids: np.ndarray  # (K,) occupied mvoxel ids, ascending
    offsets: np.ndarray  # (K+1,) slice boundaries into `order`

    @classmethod
    def build(cls, sample_mvoxels: np.ndarray) -> "RayIndexTable":
        """Group sample indices by their MVoxel id (-1 = outside, dropped)."""
        sample_mvoxels = np.asarray(sample_mvoxels, dtype=np.int64)
        valid = np.nonzero(sample_mvoxels >= 0)[0]
        keys = sample_mvoxels[valid]
        sort = np.argsort(keys, kind="stable")
        order = valid[sort]
        sorted_keys = keys[sort]
        if sorted_keys.size == 0:
            return cls(order=order, mvoxel_ids=np.zeros(0, dtype=np.int64),
                       offsets=np.zeros(1, dtype=np.int64))
        boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
        offsets = np.concatenate([[0], boundaries, [sorted_keys.size]])
        mvoxel_ids = sorted_keys[offsets[:-1]]
        return cls(order=order, mvoxel_ids=mvoxel_ids,
                   offsets=offsets.astype(np.int64))

    # -- iteration -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.mvoxel_ids)

    def samples_for(self, k: int) -> np.ndarray:
        """Sample indices scheduled under the k-th occupied MVoxel."""
        return self.order[self.offsets[k]:self.offsets[k + 1]]

    def iter_entries(self):
        """Yield (mvoxel_id, sample_indices) in streaming order."""
        for k, mid in enumerate(self.mvoxel_ids):
            yield int(mid), self.samples_for(k)

    # -- sizes ----------------------------------------------------------------

    @property
    def num_scheduled_samples(self) -> int:
        return int(self.order.shape[0])

    @property
    def table_bytes(self) -> int:
        """DRAM footprint of the RIT itself (one entry per sample)."""
        return self.num_scheduled_samples * RIT_ENTRY_BYTES
