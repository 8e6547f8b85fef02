"""Mobile-GPU timing/energy model (Volta-class, Xavier SoC).

A calibrated analytic model standing in for the paper's direct measurements.
Per-stage costs are derived from the workload counts:

* Indexing (I): per-ray setup plus per-sample cell/weight computation.
* Feature Gathering (G): latency-bound irregular fetches; the per-fetch cost
  scales with the measured bank-conflict slowdown and the random-access
  share of the traffic, which is what makes gathering dominate (Fig. 3).
* Feature Computation (F): MAC-throughput-bound MLP inference.
* SPARW warp ops: the paper measures ~1 ms per million points on Volta.

Constants are chosen so the baseline reproduces the paper's qualitative
breakdown (G > 56% of time) and the DVGO-on-Xavier throughput scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workload import FrameWorkload

__all__ = ["GPUConfig", "StageBreakdown", "GPUModel"]


@dataclass(frozen=True)
class GPUConfig:
    """Calibrated mobile-GPU cost constants."""

    mac_rate: float = 5.0e10  # effective fp16 MACs/s on small-batch MLPs
    index_ray_cost_s: float = 40e-9  # ray setup
    index_sample_cost_s: float = 4.0e-9  # cell id + weights per sample
    gather_fetch_cost_s: float = 2.0e-9  # per vertex fetch, conflict-free
    gather_random_penalty_s: float = 6.0e-9  # extra per random-DRAM fetch
    conflict_exposure: float = 0.5  # fraction of bank-conflict stalls exposed
    warp_point_cost_s: float = 1.0e-9  # SPARW steps 1-3 per point (paper)
    average_power_w: float = 10.0  # measured board power under load


@dataclass
class StageBreakdown:
    """Per-stage latency (seconds) of one frame on one engine."""

    indexing: float = 0.0
    gathering: float = 0.0
    computation: float = 0.0
    warping: float = 0.0

    @property
    def total(self) -> float:
        return self.indexing + self.gathering + self.computation + self.warping


class GPUModel:
    """Prices a workload when every stage runs on the mobile GPU."""

    def __init__(self):
        self.config = GPUConfig()

    # -- per-stage timing ---------------------------------------------------------

    def indexing_time(self, workload: FrameWorkload) -> float:
        return (workload.num_rays * self.config.index_ray_cost_s
                + workload.num_samples * self.config.index_sample_cost_s)

    def gathering_time(self, workload: FrameWorkload) -> float:
        """Irregular-fetch-bound gather time.

        Random-DRAM fetches pay the extra latency penalty; the whole stage
        additionally dilates by the banked-SRAM conflict slowdown measured
        for the feature-major layout.
        """
        accesses = workload.gather_accesses
        if accesses == 0:
            return 0.0
        traffic = workload.baseline_traffic
        random_fraction = (traffic.random_bytes / traffic.total_bytes
                           if traffic.total_bytes else 1.0)
        per_fetch = (self.config.gather_fetch_cost_s
                     + random_fraction * self.config.gather_random_penalty_s)
        # GPUs hide part of the bank-conflict serialisation behind other
        # warps; only `conflict_exposure` of the measured slowdown bites.
        conflict_factor = 1.0 + self.config.conflict_exposure * (
            workload.gather_conflict_slowdown - 1.0)
        return accesses * per_fetch * conflict_factor

    def computation_time(self, workload: FrameWorkload) -> float:
        return workload.mlp_macs / self.config.mac_rate

    def warping_time(self, workload: FrameWorkload) -> float:
        return workload.warp_points * self.config.warp_point_cost_s

    # -- frame-level ----------------------------------------------------------------

    def frame_breakdown(self, workload: FrameWorkload) -> StageBreakdown:
        return StageBreakdown(
            indexing=self.indexing_time(workload),
            gathering=self.gathering_time(workload),
            computation=self.computation_time(workload),
            warping=self.warping_time(workload),
        )
