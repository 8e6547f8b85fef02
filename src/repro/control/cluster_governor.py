"""Cluster-layer governor: graceful load-shedding across a worker fleet.

Extends the per-session SLO loop to the fleet's front door: admission
pressure maps to a degraded *admission level* (heavily loaded workers take
newcomers at a lower rung), SLO-violating resident sessions are retuned
at frame boundaries, and — the graceful-shedding move — when every worker
sits at its admission queue limit, the governor degrades the residents of
the least-loaded worker and admits the newcomer at its deepest allowed
rung into a bounded *overflow* slot instead of rejecting it.  Quality
bends before the admission controller breaks.

Duck-typed over workers (``load``/``worker_id``), so it carries no
dependency on :mod:`repro.cluster`.
"""

from __future__ import annotations

from .governor import QualityGovernor, start_level

__all__ = ["ClusterGovernor"]


class ClusterGovernor:
    """Fleet-level quality/admission policy around a QualityGovernor.

    Parameters
    ----------
    config:
        Base experiment config (ladder configs derive from it).
    mode:
        ``"static"`` or ``"adaptive"`` (``"off"`` means no governor).
    queue_limit:
        The admission controller's per-worker resident bound; admission
        levels scale against it, and overflow extends it by half of it
        (at least one slot) for sessions the adaptive governor degrades.

    Latency targets come from each workload's own ``slo_latency_s``;
    mix-wide SLO overrides are a spec rewrite
    (:func:`repro.workloads.apply_slo`), not a governor knob.
    """

    def __init__(self, config, mode: str = "adaptive",
                 queue_limit: int = 4):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.config = config
        self.governor = QualityGovernor(mode)
        self.queue_limit = int(queue_limit)
        self.overflow_slots = max(1, queue_limit // 2)
        self.overflow_admissions = 0

    @property
    def mode(self) -> str:
        """Governor mode ("static" or "adaptive")."""
        return self.governor.mode

    # -- admission ---------------------------------------------------------------

    def admission_level(self, spec, worker) -> int:
        """Ladder rung a newcomer lands on, from the worker's pressure.

        Empty workers admit at full quality; a worker at its queue limit
        admits at the spec's deepest allowed rung; loads in between map
        linearly.  ``static`` mode always pins the deepest rung.
        """
        max_level = spec.max_quality_level
        if self.mode != "adaptive" or max_level == 0:
            return start_level(self.mode, max_level)
        pressure = worker.load / self.queue_limit
        return min(max_level, int(pressure * (max_level + 1)))

    def register(self, session_id: str, spec, level: int) -> None:
        """Start governing an admitted session at its admission level."""
        self.governor.register(session_id, spec.slo_latency_s,
                               spec.max_quality_level, level=level)

    def overflow_target(self, workers: list):
        """Worker to shed onto when the whole fleet is at its queue limit.

        Least-loaded worker with a free overflow slot (ties by id), or
        ``None`` when overflow capacity is exhausted too — only then does
        the admission controller reject.
        """
        if self.mode != "adaptive":
            return None
        cap = self.queue_limit + self.overflow_slots
        open_workers = [w for w in workers if w.load < cap]
        if not open_workers:
            return None
        self.overflow_admissions += 1
        return min(open_workers, key=lambda w: (w.load, w.worker_id))
