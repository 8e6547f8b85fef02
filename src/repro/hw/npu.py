"""NPU model: systolic-array DNN accelerator (Sec. V hardware details).

A 24x24 MAC array at 1 GHz with a 1.5 MB double-buffered global feature
buffer and a 96 KB weight buffer, mirroring the paper's TPU-style design.
The NPU executes Feature Computation (F): batched MLP inference over ray
samples.  Utilisation accounts for dimension padding to the array size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsys.energy import DEFAULT_ENERGY
from .workload import FrameWorkload

__all__ = ["NPUConfig", "NPUModel"]


@dataclass(frozen=True)
class NPUConfig:
    """Systolic-array parameters."""

    array_rows: int = 24
    array_cols: int = 24
    clock_hz: float = 1.0e9
    feature_buffer_bytes: int = 1536 * 1024  # 1.5 MB double-buffered
    weight_buffer_bytes: int = 96 * 1024
    utilization: float = 0.75  # average array efficiency on small MLP layers

    @property
    def macs_per_cycle(self) -> float:
        return self.array_rows * self.array_cols

    @property
    def effective_mac_rate(self) -> float:
        return self.macs_per_cycle * self.clock_hz * self.utilization


class NPUModel:
    """Prices MLP inference (stage F) on the systolic array."""

    def __init__(self, config: NPUConfig | None = None):
        self.config = config or NPUConfig()

    def computation_time(self, workload: FrameWorkload) -> float:
        """Latency of the frame's MLP MACs on the array."""
        return workload.mlp_macs / self.config.effective_mac_rate

    def computation_energy(self, workload: FrameWorkload) -> float:
        """MAC energy + feature-buffer SRAM traffic for activations."""
        mac = DEFAULT_ENERGY.mac_energy(workload.mlp_macs)
        # Each sample's feature vector is written once and read once from the
        # global feature buffer.
        feature_bytes = 2.0 * workload.gather_bytes / max(
            workload.vertices_per_sample, 1.0)
        return mac + DEFAULT_ENERGY.sram_energy(feature_bytes)
