"""Fully-streaming (memory-centric) gather scheduling — Sec. IV-A.

Converts the pixel-centric gather of a batch of ray samples into the paper's
memory-centric order: partition each gather structure into MVoxels, build the
Ray Index Table, and account the DRAM traffic of streaming occupied MVoxels
exactly once.  Hash-table levels whose accesses cannot be spatially tiled
revert to the baseline pixel-centric traffic (the paper's reversion rule for
Instant-NGP's coarse hashed levels).

For every gather group the scheduler reports both the baseline traffic
(pixel-centric, optionally filtered through an on-chip cache) and the
fully-streaming traffic, which the benches turn into Fig. 4/17/19/21 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from ...memsys.cache import simulate_lru
from ...memsys.trace import analyze_streaming, trace_from_gather_group
from .mvoxel import MVoxelLayout
from .rit import RayIndexTable

__all__ = ["GroupStreamingReport", "StreamingReport", "FullyStreamingScheduler"]


@dataclass
class GroupStreamingReport:
    """Traffic comparison for one gather group (one grid/level/plane)."""

    name: str
    streamable: bool
    num_samples: int
    vertex_accesses: int

    # Pixel-centric baseline.
    baseline_bytes: int  # DRAM bytes after the on-chip cache (if simulated)
    baseline_streaming_bytes: int
    baseline_random_bytes: int
    baseline_streaming_fraction: float  # access-level (Fig. 4 metric)
    unique_bytes: int

    # Fully-streaming dataflow.
    fs_streaming_bytes: int
    fs_random_bytes: int
    rit_bytes: int

    # MVoxel details (zero for reverted groups).
    mvoxel_side: int = 0
    occupied_mvoxels: int = 0
    total_mvoxels: int = 0
    storage_overhead: float = 1.0

    @property
    def fs_bytes(self) -> int:
        return self.fs_streaming_bytes + self.fs_random_bytes

    @property
    def traffic_reduction(self) -> float:
        """Baseline / fully-streaming DRAM bytes."""
        return self.baseline_bytes / max(self.fs_bytes, 1)


@dataclass
class StreamingReport:
    """Aggregate over all gather groups of a render batch."""

    groups: list = field(default_factory=list)

    def _total(self, attr: str) -> int:
        return int(sum(getattr(g, attr) for g in self.groups))

    @property
    def baseline_bytes(self) -> int:
        return self._total("baseline_bytes")

    @property
    def baseline_streaming_bytes(self) -> int:
        return self._total("baseline_streaming_bytes")

    @property
    def baseline_random_bytes(self) -> int:
        return self._total("baseline_random_bytes")

    @property
    def fs_streaming_bytes(self) -> int:
        return self._total("fs_streaming_bytes")

    @property
    def fs_random_bytes(self) -> int:
        return self._total("fs_random_bytes")

    @property
    def fs_bytes(self) -> int:
        return self.fs_streaming_bytes + self.fs_random_bytes

    @property
    def fs_streaming_fraction(self) -> float:
        total = self.fs_bytes
        return 1.0 if total == 0 else self.fs_streaming_bytes / total

    @property
    def traffic_reduction(self) -> float:
        return self.baseline_bytes / max(self.fs_bytes, 1)


class FullyStreamingScheduler:
    """Builds MVoxel layouts + RITs and accounts both dataflows' traffic.

    Parameters
    ----------
    buffer_bytes:
        On-chip vertex buffer an MVoxel must fit into (paper: 32 KB VFT).
    baseline_cache_bytes:
        Capacity of the cache the *baseline* enjoys; pixel-centric traffic
        is its miss traffic.  ``None`` charges every baseline access to
        DRAM (no reuse at all).
    cache_block_bytes:
        Cache line size for the baseline cache simulation.
    """

    def __init__(self, buffer_bytes: int = 32 * 1024,
                 baseline_cache_bytes: int | None = 2 * 1024 * 1024,
                 cache_block_bytes: int = 64):
        self.buffer_bytes = int(buffer_bytes)
        self.baseline_cache_bytes = baseline_cache_bytes
        self.cache_block_bytes = int(cache_block_bytes)

    # -- per-group ----------------------------------------------------------------

    def schedule_group(self, group) -> tuple[GroupStreamingReport,
                                             RayIndexTable | None,
                                             MVoxelLayout | None]:
        """Schedule one gather group; returns (report, rit, layout)."""
        raw = trace_from_gather_group(group)
        trace = raw.coalesced(block_bytes=self.cache_block_bytes)
        analysis = analyze_streaming(trace)
        unique = raw.unique_bytes(granularity=self.cache_block_bytes)

        if self.baseline_cache_bytes is not None:
            cache = simulate_lru(raw.addresses, self.baseline_cache_bytes,
                                 block_bytes=self.cache_block_bytes)
            baseline_bytes = cache.miss_bytes
        else:
            baseline_bytes = trace.total_bytes
        stream_frac = analysis.streaming_fraction
        baseline_streaming = int(baseline_bytes * stream_frac)
        baseline_random = baseline_bytes - baseline_streaming

        if not group.streamable:
            # Reversion rule: hashed levels keep the pixel-centric dataflow.
            report = GroupStreamingReport(
                name=group.name, streamable=False,
                num_samples=group.num_samples,
                vertex_accesses=group.num_samples * group.vertices_per_sample,
                baseline_bytes=baseline_bytes,
                baseline_streaming_bytes=baseline_streaming,
                baseline_random_bytes=baseline_random,
                baseline_streaming_fraction=stream_frac,
                unique_bytes=unique,
                fs_streaming_bytes=baseline_streaming,
                fs_random_bytes=baseline_random,
                rit_bytes=0,
            )
            return report, None, None

        layout = MVoxelLayout(grid_shape=group.grid_shape,
                              entry_bytes=group.entry_bytes,
                              buffer_bytes=self.buffer_bytes)
        sample_mvoxels = layout.mvoxel_of_cells(group.cell_ids)
        rit = RayIndexTable.build(sample_mvoxels)
        occupied = len(rit)
        mvoxel_stream = occupied * layout.mvoxel_bytes
        # The RIT moves GPU -> NPU over the SoC interconnect (DMA into the
        # on-chip RIT buffer, Sec. IV-C); it is charged as on-chip traffic by
        # the SoC model, not as DRAM bytes here.
        rit_bytes = rit.table_bytes

        report = GroupStreamingReport(
            name=group.name, streamable=True,
            num_samples=group.num_samples,
            vertex_accesses=group.num_samples * group.vertices_per_sample,
            baseline_bytes=baseline_bytes,
            baseline_streaming_bytes=baseline_streaming,
            baseline_random_bytes=baseline_random,
            baseline_streaming_fraction=stream_frac,
            unique_bytes=unique,
            fs_streaming_bytes=mvoxel_stream,
            fs_random_bytes=0,
            rit_bytes=rit_bytes,
            mvoxel_side=layout.side,
            occupied_mvoxels=occupied,
            total_mvoxels=layout.num_mvoxels,
            storage_overhead=layout.storage_overhead,
        )
        return report, rit, layout

    # -- batch ---------------------------------------------------------------------

    def analyze(self, groups: list) -> StreamingReport:
        """Schedule every gather group of a render batch."""
        report = StreamingReport()
        for group in groups:
            group_report, _, _ = self.schedule_group(group)
            report.groups.append(group_report)
        return report
