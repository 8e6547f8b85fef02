"""DRAM access traces and stream-run analysis.

An :class:`AccessTrace` is an ordered sequence of (byte address, size)
accesses.  The analysis here answers the paper's Fig. 4 question — what
fraction of DRAM traffic is *non-streaming* — by detecting forward-sequential
runs: an access continues a stream when it starts within ``STREAM_WINDOW``
bytes after the previous access's end (covering burst alignment and small
skips that a DRAM prefetcher absorbs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AccessTrace", "StreamAnalysis", "analyze_streaming",
           "trace_from_gather_group", "interleaved_gather_trace"]

# One LPDDR3 row (2 KB): forward jumps within the open row are row-buffer
# hits and cost streaming energy.
STREAM_WINDOW = 2048
# Samples per block of a hierarchical model's per-level kernel launches.
BLOCK_SAMPLES = 4096


@dataclass
class AccessTrace:
    """An ordered DRAM access sequence (addresses in bytes)."""

    addresses: np.ndarray  # (N,) int64 start addresses
    sizes: np.ndarray  # (N,) int64 access sizes in bytes

    def __post_init__(self):
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if self.addresses.shape != self.sizes.shape:
            raise ValueError("addresses and sizes must have equal length")

    def __len__(self) -> int:
        return self.addresses.shape[0]

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def unique_bytes(self, granularity: int = 32) -> int:
        """Distinct bytes touched, at ``granularity``-byte block resolution."""
        if len(self) == 0:
            return 0
        first = self.addresses // granularity
        last = (self.addresses + self.sizes - 1) // granularity
        if int((last - first).max()) == 0:
            blocks = np.unique(first)
            return int(blocks.size) * granularity
        spans = [np.arange(f, l + 1) for f, l in zip(first, last)]
        blocks = np.unique(np.concatenate(spans))
        return int(blocks.size) * granularity

    def coalesced(self, block_bytes: int) -> "AccessTrace":
        """Merge temporally adjacent accesses that form one DRAM burst.

        Consecutive accesses are merged while they stay within the running
        burst window (same or next ``block_bytes`` block).  This models the
        memory controller's write-combining/burst behaviour: fetching the
        two z-adjacent corners of a voxel is one DRAM transaction, not two.
        """
        if len(self) == 0:
            return AccessTrace(addresses=self.addresses.copy(),
                               sizes=self.sizes.copy())
        blocks_start = self.addresses // block_bytes
        blocks_end = (self.addresses + self.sizes - 1) // block_bytes
        starts = np.ones(len(self), dtype=bool)
        starts[1:] = ~((blocks_start[1:] >= blocks_end[:-1])
                       & (blocks_start[1:] <= blocks_end[:-1] + 1))
        start_idx = np.nonzero(starts)[0]
        addresses = blocks_start[start_idx] * block_bytes
        seg_end = np.maximum.reduceat(blocks_end, start_idx)
        ends = (seg_end + 1) * block_bytes
        return AccessTrace(addresses=addresses, sizes=ends - addresses)


@dataclass
class StreamAnalysis:
    """Streaming/irregularity summary of a trace."""

    num_accesses: int
    streaming_accesses: int
    total_bytes: int
    streaming_bytes: int

    @property
    def streaming_fraction(self) -> float:
        if self.num_accesses == 0:
            return 1.0
        return self.streaming_accesses / self.num_accesses

    @property
    def non_streaming_fraction(self) -> float:
        return 1.0 - self.streaming_fraction


def analyze_streaming(trace: AccessTrace) -> StreamAnalysis:
    """Classify each access as stream-continuing or random.

    The first access of a run is charged as random (it opens a new DRAM row);
    subsequent accesses landing within ``[end, end + STREAM_WINDOW)`` of the
    previous access continue the stream.
    """
    n = len(trace)
    if n == 0:
        return StreamAnalysis(0, 0, 0, 0)
    ends = trace.addresses + trace.sizes
    gaps = trace.addresses[1:] - ends[:-1]
    streaming = np.zeros(n, dtype=bool)
    streaming[1:] = (gaps >= 0) & (gaps < STREAM_WINDOW)
    return StreamAnalysis(
        num_accesses=n,
        streaming_accesses=int(streaming.sum()),
        total_bytes=int(trace.sizes.sum()),
        streaming_bytes=int(trace.sizes[streaming].sum()),
    )


def interleaved_gather_trace(groups: list) -> AccessTrace:
    """Realistic pixel-centric access order across multiple gather groups.

    Hierarchical models process a *block* of samples through every level
    before moving on (per-level kernel launches over a ray batch).  The
    resulting DRAM stream interleaves the levels block-wise; feeding a cache
    simulator the levels one-after-another would overstate locality.
    """
    if not groups:
        return AccessTrace(addresses=np.zeros(0, dtype=np.int64),
                           sizes=np.zeros(0, dtype=np.int64))
    per_group = [(g.vertex_addresses(), g.entry_bytes) for g in groups]
    num_samples = max(a.shape[0] for a, _ in per_group)
    addr_parts = []
    size_parts = []
    for start in range(0, num_samples, BLOCK_SAMPLES):
        stop = start + BLOCK_SAMPLES
        for addresses, entry_bytes in per_group:
            chunk = addresses[start:stop].reshape(-1)
            if chunk.size:
                addr_parts.append(chunk)
                size_parts.append(np.full(chunk.shape, entry_bytes,
                                          dtype=np.int64))
    return AccessTrace(addresses=np.concatenate(addr_parts),
                       sizes=np.concatenate(size_parts))


def trace_from_gather_group(group) -> AccessTrace:
    """Flatten a gather group's vertex fetches into a DRAM access trace.

    The order is pixel-centric: samples in the order the renderer produced
    them (ray-major), each fetching its vertices in corner order — exactly
    the access stream of the baseline pipeline.
    """
    flat = group.vertex_addresses().reshape(-1)
    sizes = np.full(flat.shape, group.entry_bytes, dtype=np.int64)
    return AccessTrace(addresses=flat, sizes=sizes)
