"""Energy constants and models (Sec. V of the paper).

The paper calibrates three ratios that everything downstream depends on:

* random DRAM : streaming DRAM energy  = 3 : 1
* random DRAM : SRAM energy            = 25 : 1
* wireless link: 100 nJ/B at 10 MB/s

Absolute values are anchored at a representative LPDDR3-class random-access
cost; every result in the benches is reported relative to a baseline, so the
anchor only sets units.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyModel", "DEFAULT_ENERGY"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-byte / per-op energy constants in picojoules."""

    dram_random_pj_per_byte: float = 6.25
    dram_stream_pj_per_byte: float = 6.25 / 3.0
    sram_pj_per_byte: float = 6.25 / 25.0
    mac_pj: float = 0.25  # one fp16 multiply-accumulate at ~12 nm
    wireless_nj_per_byte: float = 100.0
    wireless_bytes_per_second: float = 10.0e6

    # -- DRAM ------------------------------------------------------------------

    def dram_energy(self, streaming_bytes: float, random_bytes: float) -> float:
        """DRAM energy in joules for a mix of streaming and random bytes."""
        return (streaming_bytes * self.dram_stream_pj_per_byte
                + random_bytes * self.dram_random_pj_per_byte) * 1e-12

    # -- SRAM ------------------------------------------------------------------

    def sram_energy(self, bytes_accessed: float) -> float:
        """On-chip SRAM access energy in joules."""
        return bytes_accessed * self.sram_pj_per_byte * 1e-12

    # -- compute ----------------------------------------------------------------

    def mac_energy(self, macs: float) -> float:
        """MAC-array compute energy in joules."""
        return macs * self.mac_pj * 1e-12

    # -- wireless (remote rendering) ----------------------------------------------

    def wireless_energy(self, bytes_transferred: float) -> float:
        """Radio energy in joules for the remote-rendering link."""
        return bytes_transferred * self.wireless_nj_per_byte * 1e-9

    def wireless_latency(self, bytes_transferred: float) -> float:
        """Transfer time in seconds over the 10 MB/s link."""
        return bytes_transferred / self.wireless_bytes_per_second


DEFAULT_ENERGY = EnergyModel()
