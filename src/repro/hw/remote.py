"""Remote-rendering scenario (Sec. V "Application Scenarios", Fig. 19b).

The device tethers wirelessly to a workstation-class GPU (2080 Ti).  Two
deployments are compared:

* **Baseline remote**: every frame is rendered remotely and streamed to the
  device; the device's energy is almost pure radio.
* **Cicero remote**: only *reference* frames render remotely; target frames
  are warped (+ sparse NeRF) locally.  Reference rendering overlaps local
  target rendering — the off-trajectory reference policy is what makes that
  legal — so per-frame latency is ``max(local target, remote ref / window)``
  plus the per-frame share of communication.

Frames cross the link video-compressed; the paper's link model is 100 nJ/B
at 10 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsys.energy import DEFAULT_ENERGY
from .soc import FrameCost, SoCModel, SparwWorkloads
from .workload import FrameWorkload

__all__ = ["RemoteConfig", "RemoteScenario"]


@dataclass(frozen=True)
class RemoteConfig:
    """Remote machine + wireless link parameters."""

    remote_speedup: float = 10.0  # 2080 Ti vs mobile Volta on NeRF inference
    frame_bytes_raw: int = 0  # set per experiment: H * W * 4 (RGB + depth)
    compression_ratio: float = 20.0  # video-codec compression on the link

    def frame_bytes_on_link(self, raw_bytes: int | None = None) -> float:
        raw = raw_bytes if raw_bytes is not None else self.frame_bytes_raw
        return raw / self.compression_ratio


class RemoteScenario:
    """Prices the remote-rendering deployments."""

    def __init__(self, soc: SoCModel, config: RemoteConfig | None = None):
        self.soc = soc
        self.config = config or RemoteConfig()

    # -- baseline: render everything remotely ----------------------------------------

    def price_baseline_remote(self, full_frame: FrameWorkload,
                              frame_bytes: int) -> FrameCost:
        """Every frame rendered on the remote GPU, streamed to the device."""
        remote_render = self.soc.price_nerf(full_frame, "gpu")
        remote_time = remote_render.time_s / self.config.remote_speedup
        link_bytes = self.config.frame_bytes_on_link(frame_bytes)
        comm_time = DEFAULT_ENERGY.wireless_latency(link_bytes)
        comm_energy = DEFAULT_ENERGY.wireless_energy(link_bytes)
        # Remote rendering and streaming pipeline across frames.
        time_s = max(remote_time, comm_time)
        return FrameCost(time_s=time_s, energy_j=comm_energy,
                         stage_times={"remote_render": remote_time,
                                      "communication": comm_time},
                         energy_parts={"wireless": comm_energy})

    # -- Cicero: offload reference frames only ------------------------------------------

    def price_sparw_remote(self, workloads: SparwWorkloads, variant: str,
                           frame_bytes: int) -> FrameCost:
        """Reference frames remote, target frames local, overlapped."""
        target = self.soc.price_nerf(workloads.target, variant)
        reference = self.soc.price_nerf(workloads.reference, variant)
        remote_ref_time = (reference.time_s / self.config.remote_speedup
                           / max(workloads.window, 1))

        link_bytes = self.config.frame_bytes_on_link(frame_bytes)
        comm_time = DEFAULT_ENERGY.wireless_latency(link_bytes) / max(
            workloads.window, 1)
        comm_energy = DEFAULT_ENERGY.wireless_energy(link_bytes) / max(
            workloads.window, 1)

        # Off-trajectory references let remote rendering and the local
        # target path overlap (Fig. 11b): latency is the slower of the two.
        time_s = max(target.time_s, remote_ref_time + comm_time)
        energy_j = target.energy_j + comm_energy  # device-side energy
        stage_times = dict(target.stage_times)
        stage_times["remote_reference"] = remote_ref_time
        stage_times["communication"] = comm_time
        parts = dict(target.energy_parts)
        parts["wireless"] = comm_energy
        return FrameCost(time_s=time_s, energy_j=energy_j,
                         stage_times=stage_times, energy_parts=parts)
