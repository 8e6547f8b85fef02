"""Open-loop cluster serving: arrivals, admission, placement, autoscaling.

Where :mod:`repro.engine` serves a *fixed* session set on one SoC, this
package simulates a *fleet*: sessions arrive over virtual time from a
seeded arrival process, an admission controller bounds per-worker queue
depth, a placement policy assigns each admitted session to a worker (the
``cache_affinity`` policy co-locates sessions sharing a workload
``cache_key`` on the worker whose reference cache already holds their
content), and each worker renders through its own multi-session engine
and prices frames on its own SoC model.  An optional autoscaler grows and
shrinks the fleet on load.  Entire runs are deterministic per seed.
"""

from .admission import (
    REJECT_NO_WORKERS,
    REJECT_QUEUE_FULL,
    AdmissionController,
    AdmissionStats,
)
from .arrivals import (
    ARRIVAL_KINDS,
    DEFAULT_CLUSTER_MIX,
    Arrival,
    deterministic_arrivals,
    diurnal_arrivals,
    make_arrivals,
    poisson_arrivals,
)
from .autoscale import Autoscaler, ScaleEvent
from .placement import (
    PLACEMENTS,
    CacheAffinityPlacement,
    LeastLoadedPlacement,
    RoundRobinPlacement,
    ShardAffinityPlacement,
    make_placement,
    rendezvous_score,
)
from .simulator import ClusterReport, ClusterSimulator, simulate_cluster
from .worker import PlacedSession, Worker

__all__ = [
    "REJECT_NO_WORKERS",
    "REJECT_QUEUE_FULL",
    "AdmissionController",
    "AdmissionStats",
    "ARRIVAL_KINDS",
    "DEFAULT_CLUSTER_MIX",
    "Arrival",
    "deterministic_arrivals",
    "diurnal_arrivals",
    "make_arrivals",
    "poisson_arrivals",
    "Autoscaler",
    "ScaleEvent",
    "PLACEMENTS",
    "CacheAffinityPlacement",
    "LeastLoadedPlacement",
    "RoundRobinPlacement",
    "ShardAffinityPlacement",
    "make_placement",
    "rendezvous_score",
    "ClusterReport",
    "ClusterSimulator",
    "simulate_cluster",
    "PlacedSession",
    "Worker",
]
