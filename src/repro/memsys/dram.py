"""DRAM timing/energy model (LPDDR3-1600 x4 channels, per the paper).

The model charges each access either a streaming cost (row-buffer hit,
back-to-back bursts) or a random cost (row activation + bus turnaround), with
effective bandwidths derived from the part's peak.  Costs are computed from
pre-classified byte counts (the streaming scheduler reports those directly).
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import DEFAULT_ENERGY

__all__ = ["DRAMConfig", "DRAMCost", "DRAMModel"]


@dataclass(frozen=True)
class DRAMConfig:
    """Bandwidth parameters of the memory system."""

    # LPDDR3-1600, 4 channels x 32 bit: 4 * 6.4 GB/s peak.
    peak_bytes_per_second: float = 25.6e9
    streaming_efficiency: float = 0.85  # fraction of peak for long bursts
    random_efficiency: float = 0.25  # fraction of peak for scattered bursts

    @property
    def stream_bw(self) -> float:
        return self.peak_bytes_per_second * self.streaming_efficiency

    @property
    def random_bw(self) -> float:
        return self.peak_bytes_per_second * self.random_efficiency


@dataclass
class DRAMCost:
    """Latency + energy of a DRAM traffic mix."""

    streaming_bytes: int
    random_bytes: int
    time_s: float
    energy_j: float


class DRAMModel:
    """Turns traffic (traces or byte counts) into time and energy."""

    def __init__(self):
        self.config = DRAMConfig()

    def cost_of_bytes(self, streaming_bytes: float, random_bytes: float
                      ) -> DRAMCost:
        """Cost of a pre-classified traffic mix."""
        time_s = (streaming_bytes / self.config.stream_bw
                  + random_bytes / self.config.random_bw)
        energy_j = DEFAULT_ENERGY.dram_energy(streaming_bytes, random_bytes)
        return DRAMCost(streaming_bytes=int(streaming_bytes),
                        random_bytes=int(random_bytes),
                        time_s=time_s, energy_j=energy_j)
