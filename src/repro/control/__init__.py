"""SLO-driven adaptive quality control plane.

The paper's core trade — spend compute only where it buys perceptible
quality — turned into a serving control loop: a per-session
:class:`QualityGovernor` observes frame latency against each workload's
SLO and moves sessions along a quality ladder (degrading before frames
drop, recovering hysteretically when headroom returns), with integration
shims for the multi-session engine (:class:`EngineGovernor`: mid-stream
tier switches + per-round ray-budget weights) and the cluster fleet
(:class:`ClusterGovernor`: pressure-scaled admission levels, resident
degradation, bounded overflow admission instead of rejection).

The ladder itself lives on the workload spec: a rung is a ``level``
argument to :meth:`~repro.workloads.WorkloadSpec.resolve_config`,
``cache_key``, ``build_renderer`` and ``build_session(..., level=)``, so
this package decides *when* a session moves, never *what* a rung is.
"""

from .cluster_governor import ClusterGovernor
from .engine_governor import EngineGovernor
from .governor import (
    GOVERNOR_MODES,
    GovernorPolicy,
    QualityGovernor,
    SessionControl,
    split_budget,
    start_level,
)
from .quality import level_quality, mean_psnr_of_levels, quality_floor

__all__ = [
    "ClusterGovernor",
    "EngineGovernor",
    "GOVERNOR_MODES",
    "GovernorPolicy",
    "QualityGovernor",
    "SessionControl",
    "split_budget",
    "start_level",
    "level_quality",
    "mean_psnr_of_levels",
    "quality_floor",
]
