"""Prior NeRF accelerators: NeuRex and NGPC analytic models (Fig. 24).

Both accelerate Instant-NGP-style hash-grid rendering.  Following the
paper's own methodology (it re-implemented NGPC from its description and
converted NeuRex's reported numbers), we model each from its published
architecture:

* **NeuRex** (ISCA'23): 32x32 PE array and a 64 KB feature buffer whose
  banked SRAM keeps the *feature-major* layout — so run-time bank conflicts
  dilate gathering (the 2x gap to Cicero the paper attributes to conflicts).
  Feature traffic still goes through DRAM pixel-centrically.
* **NGPC** (ISCA'23): 24x24 PEs with a 16 MB on-chip feature store — all
  gather traffic stays on-chip and conflict-free (one bank per level), but
  the buffer is unrealistically large for mobile and there is no SPARW-style
  work reduction.
"""

from __future__ import annotations

from ..memsys.dram import DRAMModel
from .gpu import GPUModel
from .gu import GatheringUnitModel
from .npu import NPUConfig, NPUModel
from .soc import FrameCost
from .workload import FrameWorkload

__all__ = ["NeuRexModel", "NGPCModel"]


class _RivalBase:
    """Shared pricing skeleton: GPU indexing + dedicated gather + PE array."""

    def __init__(self, array_rows: int, array_cols: int):
        self.gpu = GPUModel()
        self.npu = NPUModel(NPUConfig(array_rows=array_rows,
                                      array_cols=array_cols))
        self.gather = GatheringUnitModel()
        self.dram = DRAMModel()

    def _price(self, workload: FrameWorkload, gather_slowdown: float,
               dram_traffic) -> FrameCost:
        t_index = self.gpu.indexing_time(workload)
        gu_cost = self.gather.gather_cost(workload)
        t_gather_engine = gu_cost.time_s * gather_slowdown
        dram_cost = self.dram.cost_of_bytes(dram_traffic.streaming_bytes,
                                            dram_traffic.random_bytes)
        t_gather = max(t_gather_engine, dram_cost.time_s)
        t_compute = self.npu.computation_time(workload)

        e_gpu = t_index * self.gpu.config.average_power_w
        e_parts = {
            "gpu": e_gpu,
            "compute": self.npu.computation_energy(workload),
            "gather": gu_cost.energy_j * gather_slowdown,
            "dram": dram_cost.energy_j,
        }
        return FrameCost(
            time_s=t_index + t_gather + t_compute,
            energy_j=sum(e_parts.values()),
            stage_times={"indexing": t_index, "gathering": t_gather,
                         "computation": t_compute, "dram": dram_cost.time_s},
            energy_parts=e_parts,
        )


class NeuRexModel(_RivalBase):
    """NeuRex: bigger PE array, feature-major buffer with bank conflicts."""

    name = "neurex"

    def __init__(self):
        super().__init__(array_rows=32, array_cols=32)

    def price_frame(self, workload: FrameWorkload) -> FrameCost:
        """Gathering dilates by the measured feature-major conflict slowdown."""
        return self._price(workload,
                           gather_slowdown=workload.gather_conflict_slowdown,
                           dram_traffic=workload.baseline_traffic)


class NGPCModel(_RivalBase):
    """NGPC: same PE count as Cicero, 16 MB on-chip feature store."""

    name = "ngpc"
    feature_buffer_bytes = 16 * 1024 * 1024

    def __init__(self):
        super().__init__(array_rows=24, array_cols=24)

    def price_frame(self, workload: FrameWorkload) -> FrameCost:
        """Conflict-free per-level banks; feature traffic never leaves chip."""
        from .workload import GatherTraffic
        no_dram = GatherTraffic(0.0, 0.0)
        return self._price(workload, gather_slowdown=1.0, dram_traffic=no_dram)
