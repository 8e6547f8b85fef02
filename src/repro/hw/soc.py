"""SoC composition: pricing frames on the baseline and Cicero variants.

The SoC (Fig. 14) couples a mobile GPU, a systolic-array NPU, and — in the
full Cicero configuration — the Gathering Unit.  This module prices a frame
workload under the paper's evaluation variants:

====================  ========================================================
 variant               meaning
====================  ========================================================
 ``gpu``               pure software on the mobile GPU (Sec. VI-B baseline)
 ``baseline``          GPU for I+G, NPU for F (the paper's main baseline)
 ``sparw``             baseline hardware + SPARW workloads
 ``sparw_fs``          + fully-streaming DRAM traffic
 ``cicero``            + Gathering Unit (conflict-free gather)
====================  ========================================================

Latency composition: indexing and warping run on the GPU; gathering runs on
the GPU or GU overlapped with its DRAM traffic (double buffering, so the
stage costs ``max(engine, DRAM)``); feature computation runs on the GPU or
NPU.  SPARW sequences charge one reference frame per window on top of every
target frame (local rendering serialises them — the resource contention the
paper notes; remote rendering offloads them, see :mod:`repro.hw.remote`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memsys.dram import DRAMModel
from ..memsys.energy import DEFAULT_ENERGY
from .gpu import GPUModel
from .gu import GatheringUnitModel
from .npu import NPUModel
from .workload import FrameWorkload

__all__ = ["FrameCost", "SparwWorkloads", "SoCModel", "VARIANTS"]

VARIANTS = ("gpu", "baseline", "sparw", "sparw_fs", "cicero")


@dataclass
class FrameCost:
    """Latency and energy of one frame, with per-stage visibility."""

    time_s: float = 0.0
    energy_j: float = 0.0
    stage_times: dict = field(default_factory=dict)
    energy_parts: dict = field(default_factory=dict)

    def merge(self, other: "FrameCost") -> "FrameCost":
        stages = dict(self.stage_times)
        for k, v in other.stage_times.items():
            stages[k] = stages.get(k, 0.0) + v
        parts = dict(self.energy_parts)
        for k, v in other.energy_parts.items():
            parts[k] = parts.get(k, 0.0) + v
        return FrameCost(time_s=self.time_s + other.time_s,
                         energy_j=self.energy_j + other.energy_j,
                         stage_times=stages, energy_parts=parts)

    def scaled(self, factor: float) -> "FrameCost":
        return FrameCost(
            time_s=self.time_s * factor,
            energy_j=self.energy_j * factor,
            stage_times={k: v * factor for k, v in self.stage_times.items()},
            energy_parts={k: v * factor for k, v in self.energy_parts.items()},
        )


@dataclass
class SparwWorkloads:
    """Per-window workload split of a SPARW sequence.

    ``target`` is the *average per-frame* lightweight path (warp + sparse
    NeRF); ``reference`` is one full-frame NeRF render, amortised over
    ``window`` target frames.
    """

    target: FrameWorkload
    reference: FrameWorkload
    window: int


class SoCModel:
    """Prices workloads under the five evaluation variants."""

    def __init__(self, feature_dim: int = 16):
        self.gpu = GPUModel()
        self.npu = NPUModel()
        self.gu = GatheringUnitModel(feature_dim=feature_dim)
        self.dram = DRAMModel()

    # -- single NeRF render (full frame or sparse batch) ---------------------------

    def price_nerf(self, workload: FrameWorkload, variant: str) -> FrameCost:
        """Price one NeRF rendering pass (I + G + F) under a variant."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; one of {VARIANTS}")
        use_npu = variant != "gpu"
        use_gu = variant == "cicero"
        use_fs = variant in ("sparw_fs", "cicero")

        traffic = (workload.streaming_traffic if use_fs
                   else workload.baseline_traffic)
        dram_cost = self.dram.cost_of_bytes(traffic.streaming_bytes,
                                            traffic.random_bytes)

        t_index = self.gpu.indexing_time(workload)
        t_warp = self.gpu.warping_time(workload)

        if use_gu:
            gu_cost = self.gu.gather_cost(workload)
            t_gather_engine = gu_cost.time_s
            e_gather = gu_cost.energy_j
            gpu_busy = t_index + t_warp
        else:
            effective = workload
            if use_fs:
                # Streaming removes the random-DRAM latency penalty but the
                # GPU's banked buffers still suffer layout conflicts.
                effective = _with_traffic(workload, traffic)
            t_gather_engine = self.gpu.gathering_time(effective)
            e_gather = DEFAULT_ENERGY.sram_energy(workload.gather_bytes)
            gpu_busy = t_index + t_warp + t_gather_engine

        t_gather = max(t_gather_engine, dram_cost.time_s)

        if use_npu:
            t_compute = self.npu.computation_time(workload)
            e_compute = self.npu.computation_energy(workload)
        else:
            t_compute = self.gpu.computation_time(workload)
            e_compute = 0.0  # folded into GPU power-x-time below
            gpu_busy += t_compute

        e_gpu = gpu_busy * self.gpu.config.average_power_w
        e_rit = DEFAULT_ENERGY.sram_energy(2.0 * workload.rit_bytes)

        stage_times = {
            "indexing": t_index,
            "gathering": t_gather,
            "computation": t_compute,
            "warping": t_warp,
            "dram": dram_cost.time_s,
        }
        energy_parts = {
            "gpu": e_gpu,
            "compute": e_compute,
            "gather": e_gather,
            "dram": dram_cost.energy_j,
            "interconnect": e_rit,
        }
        total_time = t_index + t_warp + t_gather + t_compute
        total_energy = sum(energy_parts.values())
        return FrameCost(time_s=total_time, energy_j=total_energy,
                         stage_times=stage_times, energy_parts=energy_parts)

    # -- SPARW sequences (local rendering) -------------------------------------------

    def price_sparw_local(self, workloads: SparwWorkloads,
                          variant: str) -> FrameCost:
        """Average per-frame cost of a SPARW window rendered locally.

        Reference and target rendering contend for the same GPU/NPU, so the
        reference's cost is serialised and amortised over the window
        (Sec. VI-C's resource-contention observation).
        """
        target = self.price_nerf(workloads.target, variant)
        reference = self.price_nerf(workloads.reference, variant)
        return target.merge(reference.scaled(1.0 / max(workloads.window, 1)))


def _with_traffic(workload: FrameWorkload, traffic) -> FrameWorkload:
    """Clone a workload with its baseline traffic replaced (for FS gather)."""
    clone = FrameWorkload(**{**workload.__dict__})
    clone.baseline_traffic = traffic
    return clone
