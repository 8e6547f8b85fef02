"""Unified observability: event tracing + metrics.

One :func:`activate` call (taking an :class:`Observation` bundling an
optional :class:`Tracer` and :class:`MetricsRegistry`) turns on every
instrumented layer at once.  Stage sections (:func:`section`) record
into the registry as ``<name>_s`` histograms; with nothing active,
every hook is a no-op bounded by the overhead tests.  See
``docs/observability.md`` for the trace schema and metric key
reference.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (Observation, activate, current, current_metrics,
                      current_tracer, metric_inc, metric_observe,
                      metric_set, section)
from .tracer import Tracer, WORK_US_PER_RAY

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Observation", "activate", "current", "current_metrics",
    "current_tracer", "metric_inc", "metric_observe", "metric_set",
    "section", "Tracer", "WORK_US_PER_RAY",
]
