"""On-chip data layouts: feature-major vs channel-major (Sec. IV-B).

Two ways to spread vertex feature vectors across SRAM banks:

* **Feature-major** (prior NeRF accelerators, Fig. 13a): all channels of one
  feature vector live in one bank (``bank = vertex_id % B``).  Concurrent
  rays fetching different vertices collide whenever two vertices map to the
  same bank — a run-time-dependent pattern that cannot be fixed offline.
* **Channel-major** (Cicero, Fig. 13b): channel ``c`` of every vector lives
  in bank ``c % B``; a vertex read touches all banks at one row.  Each issue
  cycle serves ``M`` (ports) whole vertices with zero conflicts by
  construction.

Both layouts emit issue groups consumable by
:class:`repro.memsys.sram.BankedSRAM`, so the conflict claim is *simulated*,
not assumed.
"""

from __future__ import annotations

import numpy as np

from ...memsys.sram import BankConflictStats, BankedSRAM

__all__ = ["FeatureMajorLayout", "ChannelMajorLayout"]


class FeatureMajorLayout:
    """``bank = vertex % B``; a vector is contiguous within its bank, and
    each bank has one port."""

    name = "feature_major"

    def __init__(self, num_banks: int):
        self.num_banks = int(num_banks)

    def issue_groups(self, vertex_ids: np.ndarray, concurrent_rays: int = 16
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Build (bank_ids, addresses) issue groups from per-sample vertices.

        ``vertex_ids`` is (N, V): V gathered vertices per ray sample.  Each
        cycle, ``concurrent_rays`` samples fetch their k-th vertex in
        lockstep (k = 0..V-1), which is the access pattern of Fig. 13a.
        Ragged tails are padded with inactive lanes (-1).
        """
        vertex_ids = np.atleast_2d(np.asarray(vertex_ids, dtype=np.int64))
        n, v = vertex_ids.shape
        padded_n = -(-n // concurrent_rays) * concurrent_rays
        padded = np.full((padded_n, v), -1, dtype=np.int64)
        padded[:n] = vertex_ids
        # (blocks, rays, V) -> groups = blocks * V, lanes = rays.
        blocks = padded.reshape(-1, concurrent_rays, v)
        lanes = np.moveaxis(blocks, 2, 1).reshape(-1, concurrent_rays)

        active = lanes >= 0
        banks = np.where(active, lanes % self.num_banks, -1)
        addresses = np.where(active, lanes // self.num_banks, 0)
        return banks, addresses

    def simulate(self, vertex_ids: np.ndarray, concurrent_rays: int = 16
                 ) -> BankConflictStats:
        """Conflict statistics for a batch of gathered samples."""
        banks, addresses = self.issue_groups(vertex_ids, concurrent_rays)
        sram = BankedSRAM(self.num_banks, 1)
        return sram.simulate_groups_fast(banks, addresses)


class ChannelMajorLayout:
    """``bank = channel % B``; a vertex read spans all banks at one row."""

    name = "channel_major"

    def __init__(self, num_banks: int, ports_per_bank: int,
                 feature_dim: int):
        if feature_dim > num_banks:
            # Oversized vectors wrap around banks (Sec. IV-B); each wrap is
            # a separate cycle, handled by the address-generation sequencer.
            self.wraps = -(-feature_dim // num_banks)
        else:
            self.wraps = 1
        self.num_banks = int(num_banks)
        self.ports_per_bank = int(ports_per_bank)
        self.feature_dim = int(feature_dim)

    def issue_groups(self, vertex_ids: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Issue groups for GU gathering: M whole-vertex reads per cycle.

        Each lane is one (channel, vertex) request.  Per cycle, ``M`` ray
        samples fetch the same corner index; the channels of each vertex
        fan out across banks at row ``vertex_id``.
        """
        vertex_ids = np.atleast_2d(np.asarray(vertex_ids, dtype=np.int64))
        n, v = vertex_ids.shape
        m = self.ports_per_bank
        padded_n = -(-n // m) * m
        padded = np.full((padded_n, v), -1, dtype=np.int64)
        padded[:n] = vertex_ids
        blocks = padded.reshape(-1, m, v)  # (cycles', M, V)
        per_corner = np.moveaxis(blocks, 2, 1).reshape(-1, m)  # (G, M)

        channels = np.arange(self.feature_dim)
        bank_of_channel = channels % self.num_banks
        lanes = self.feature_dim
        groups = per_corner.shape[0]
        banks = np.empty((groups, m * lanes), dtype=np.int64)
        addresses = np.empty_like(banks)
        for port in range(m):
            vid = per_corner[:, port]
            active = vid >= 0
            sl = slice(port * lanes, (port + 1) * lanes)
            banks[:, sl] = np.where(active[:, None], bank_of_channel[None, :], -1)
            # Row address: vertex id, offset by the wrap index for wide vectors.
            wrap = channels // self.num_banks
            addresses[:, sl] = (np.maximum(vid, 0)[:, None] * self.wraps
                                + wrap[None, :])
        return banks, addresses

    def simulate(self, vertex_ids: np.ndarray) -> BankConflictStats:
        """Conflict statistics — provably 0 when wraps == 1 (see tests)."""
        banks, addresses = self.issue_groups(vertex_ids)
        sram = BankedSRAM(self.num_banks, self.ports_per_bank)
        return sram.simulate_groups_fast(banks, addresses)

    def analytic_cycles(self, num_samples: int, vertices_per_sample: int = 8
                        ) -> int:
        """Closed-form GU gather cycles: V reads per sample, M samples/cycle."""
        per_corner_cycles = -(-num_samples // self.ports_per_bank)
        return per_corner_cycles * vertices_per_sample * self.wraps
