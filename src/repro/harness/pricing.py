"""Frame economics: the one place that prices served frames in $ and J.

Every harness surface (``serve``, ``cluster`` and the ``experiment``
runner) folds the same two capacity-planning columns into
its aggregated rows through :func:`frame_economics`:

* ``joules_per_frame`` — SoC energy per served frame, accumulated from
  the per-frame :class:`~repro.hw.soc.FrameCost` energies (which the SoC
  models derive from :mod:`repro.memsys.energy` constants).
* ``usd_per_frame`` — electricity for that energy plus the amortised
  capital cost of the SoC-seconds the frame occupied.

The defaults are deliberately round, documented numbers: published
curves report *relative* $/frame across cells of one run table, so the
anchor only sets units (the same stance :mod:`repro.memsys.energy` takes
for its pJ/byte constants).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COST", "frame_economics"]

_JOULES_PER_KWH = 3.6e6


@dataclass(frozen=True)
class CostModel:
    """Dollar-cost constants for energy and amortised SoC capital."""

    # US average retail electricity price, $/kWh (order-of-magnitude
    # anchor; override per deployment).
    electricity_usd_per_kwh: float = 0.12
    # One SoC board, amortised linearly over a 3-year service life.
    soc_capital_usd: float = 450.0
    soc_lifetime_s: float = 3.0 * 365.0 * 86400.0

    @property
    def usd_per_joule(self) -> float:
        """Electricity cost of one joule."""
        return self.electricity_usd_per_kwh / _JOULES_PER_KWH

    @property
    def usd_per_busy_second(self) -> float:
        """Amortised capital cost of one SoC-second of service."""
        return self.soc_capital_usd / self.soc_lifetime_s

    def run_cost_usd(self, energy_j: float, busy_s: float) -> float:
        """Total $ cost of a run: energy plus occupied SoC time."""
        return (energy_j * self.usd_per_joule
                + busy_s * self.usd_per_busy_second)


DEFAULT_COST = CostModel()


def frame_economics(total_frames: int, energy_j: float, busy_s: float
                    ) -> dict:
    """The J/frame and $/frame columns of one run-table row.

    ``busy_s`` is the summed SoC-busy time behind the frames, never
    the time an SoC sat idle.  A run that served zero frames reports finite zeros, never ``inf``/``nan`` — the
    strict-JSON artifact contract.
    """
    frames = int(total_frames)
    if frames <= 0:
        return {"total_energy_j": float(energy_j), "joules_per_frame": 0.0,
                "usd_per_frame": 0.0}
    return {
        "total_energy_j": float(energy_j),
        "joules_per_frame": float(energy_j) / frames,
        "usd_per_frame": DEFAULT_COST.run_cost_usd(energy_j, busy_s) / frames,
    }
