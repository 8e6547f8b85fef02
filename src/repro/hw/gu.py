"""Gathering Unit (GU) model — the paper's hardware contribution (Sec. IV-C).

The GU replaces GPU feature gathering.  Its Vertex Feature Table (VFT) holds
one MVoxel in B single-ported-crossbar-free SRAM arrays (channel-major
layout), each with M ports; B x M reducers perform trilinear interpolation.
Per the paper: reading one ray sample's voxel takes 8 cycles (8 vertex
vectors), and M samples proceed in parallel — conflict-free by construction,
which tests verify against the banked-SRAM simulator.

Energy scales with VFT size: larger buffers cost more per access (bitline
capacitance), which produces the Fig. 23 sweep shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.layout.sram_layout import ChannelMajorLayout
from ..memsys.energy import DEFAULT_ENERGY
from .workload import FrameWorkload

__all__ = ["GUConfig", "GUCost", "GatheringUnitModel"]


@dataclass(frozen=True)
class GUConfig:
    """Gathering Unit parameters (paper defaults from Sec. V)."""

    num_banks: int = 32
    ports_per_bank: int = 2
    vft_bytes: int = 32 * 1024
    rit_entries: int = 128
    rit_entry_bytes: int = 48
    clock_hz: float = 1.0e9
    # Relative SRAM energy vs the 32 KB reference point as a function of
    # capacity: E ~ (size/32KB)^alpha captures longer bitlines/wordlines.
    vft_reference_bytes: int = 32 * 1024
    vft_energy_exponent: float = 0.5
    # Below ~8 KB the periphery (sense amps, decoders) dominates and shrinking
    # further stops helping; modelled as an energy floor.
    vft_energy_floor: float = 0.9

    @property
    def rit_buffer_bytes(self) -> int:
        # Double-buffered RIT (two 6 KB halves at the defaults).
        return 2 * self.rit_entries * self.rit_entry_bytes


@dataclass
class GUCost:
    """Latency + energy of a GU gather pass."""

    cycles: int
    time_s: float
    energy_j: float
    sram_bytes: int


class GatheringUnitModel:
    """Prices Feature Gathering (G) on the GU."""

    def __init__(self, feature_dim: int, config: GUConfig | None = None):
        self.config = config or GUConfig()
        self.layout = ChannelMajorLayout(
            num_banks=self.config.num_banks,
            ports_per_bank=self.config.ports_per_bank,
            feature_dim=feature_dim,
        )

    def _vft_energy_scale(self) -> float:
        ratio = self.config.vft_bytes / self.config.vft_reference_bytes
        return max(ratio ** self.config.vft_energy_exponent,
                   self.config.vft_energy_floor)

    def gather_cost(self, workload: FrameWorkload) -> GUCost:
        """Cycles/energy to gather+interpolate every sample's vertices."""
        samples = workload.num_samples
        vertices = max(int(round(workload.vertices_per_sample)), 1)
        cycles = self.layout.analytic_cycles(samples, vertices)
        time_s = cycles / self.config.clock_hz

        sram_bytes = workload.gather_bytes  # each vertex vector read once
        # RIT entries are written by DMA and read by address generation.
        if workload.rit_bytes:
            rit_bytes = 2 * workload.rit_bytes
        else:
            rit_bytes = 2 * samples * self.config.rit_entry_bytes
        energy_j = (DEFAULT_ENERGY.sram_energy(sram_bytes) * self._vft_energy_scale()
                    + DEFAULT_ENERGY.sram_energy(rit_bytes))
        return GUCost(cycles=cycles, time_s=time_s, energy_j=energy_j,
                      sram_bytes=sram_bytes)

    def area_overhead_mm2(self) -> float:
        """SRAM-dominated area estimate of the GU add-ons (Sec. V: ~0.048)."""
        kb = (self.config.vft_bytes + self.config.rit_buffer_bytes) / 1024.0
        # ~0.0011 mm^2 per KB of compiled SRAM at 12 nm, matching the paper's
        # 44 KB ~= 0.048 mm^2 accounting.
        return kb * 0.0011
