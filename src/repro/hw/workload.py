"""Frame workload descriptors: the interface between rendering and hardware.

The renderers/SPARW pipeline produce work *counts* (rays, samples, MACs,
gather accesses, warp points); the streaming scheduler produces DRAM traffic
mixes.  A :class:`FrameWorkload` bundles them so every SoC variant prices the
same physical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GatherTraffic", "FrameWorkload", "workload_from_stats"]


@dataclass
class GatherTraffic:
    """DRAM traffic of the feature-gathering stage under one dataflow."""

    streaming_bytes: float = 0.0
    random_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.streaming_bytes + self.random_bytes

    def scaled(self, factor: float) -> "GatherTraffic":
        return GatherTraffic(self.streaming_bytes * factor,
                             self.random_bytes * factor)


@dataclass
class FrameWorkload:
    """Work counts for rendering one frame (or one frame's NeRF portion).

    ``gather_conflict_slowdown`` is the measured feature-major banked-SRAM
    slowdown (Fig. 6) applied to gather throughput on conflict-prone
    hardware; the GU is immune to it.
    """

    num_rays: int = 0
    num_samples: int = 0
    mlp_macs: int = 0
    gather_accesses: int = 0
    gather_bytes: int = 0
    baseline_traffic: GatherTraffic = field(default_factory=GatherTraffic)
    streaming_traffic: GatherTraffic = field(default_factory=GatherTraffic)
    rit_bytes: int = 0
    gather_conflict_slowdown: float = 1.0
    warp_points: int = 0  # SPARW steps 1-3 point ops (0 for full frames)
    vertices_per_sample: float = 8.0

    def scaled(self, factor: float) -> "FrameWorkload":
        """Scale all work counts (e.g. amortise a reference over a window)."""
        return FrameWorkload(
            num_rays=int(self.num_rays * factor),
            num_samples=int(self.num_samples * factor),
            mlp_macs=int(self.mlp_macs * factor),
            gather_accesses=int(self.gather_accesses * factor),
            gather_bytes=int(self.gather_bytes * factor),
            baseline_traffic=self.baseline_traffic.scaled(factor),
            streaming_traffic=self.streaming_traffic.scaled(factor),
            rit_bytes=int(self.rit_bytes * factor),
            gather_conflict_slowdown=self.gather_conflict_slowdown,
            warp_points=int(self.warp_points * factor),
            vertices_per_sample=self.vertices_per_sample,
        )


def workload_from_stats(stats, streaming_report=None,
                        conflict_slowdown: float = 1.0,
                        warp_points: int = 0) -> FrameWorkload:
    """Build a workload from renderer stats (+ optional streaming report).

    Without a streaming report, baseline DRAM traffic defaults to all gather
    bytes charged as random (no cache) — callers wanting cache-filtered
    traffic pass a report from :class:`FullyStreamingScheduler`.
    """
    wl = FrameWorkload(
        num_rays=stats.num_rays,
        num_samples=stats.num_samples,
        mlp_macs=stats.mlp_macs,
        gather_accesses=stats.gather_vertex_accesses,
        gather_bytes=stats.gather_bytes,
        gather_conflict_slowdown=conflict_slowdown,
        warp_points=warp_points,
    )
    if stats.num_samples > 0:
        wl.vertices_per_sample = (stats.gather_vertex_accesses
                                  / stats.num_samples)
    if streaming_report is not None:
        wl.baseline_traffic = GatherTraffic(
            float(streaming_report.baseline_streaming_bytes),
            float(streaming_report.baseline_random_bytes))
        wl.streaming_traffic = GatherTraffic(
            float(streaming_report.fs_streaming_bytes),
            float(streaming_report.fs_random_bytes))
        wl.rit_bytes = int(sum(g.rit_bytes for g in streaming_report.groups))
    else:
        wl.baseline_traffic = GatherTraffic(0.0, float(stats.gather_bytes))
        wl.streaming_traffic = GatherTraffic(float(stats.gather_bytes), 0.0)
    return wl
