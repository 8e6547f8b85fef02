"""Activation backbone shared by stage sections, tracing, and metrics.

One module-global :class:`Observation` (tracer + metrics, each
optional) is the sole coupling point between product code and
observability.  Library layers call the guarded helpers here
(:func:`section`, :func:`metric_inc`, :func:`metric_observe`,
:func:`metric_set`, :func:`current_tracer`); each one is a single
global read plus a ``None`` check when nothing is active, so the
disabled fast path costs nothing measurable (bounded by
``tests/obs/test_obs_runtime.py`` and ``tests/perf/test_timer.py``).

The harness activates one :class:`Observation` per run::

    obs = Observation(tracer=Tracer(), metrics=MetricsRegistry())
    with activate(obs):
        execute_cell(cell)
    obs.tracer.write(path)

Stage timing has no sink of its own: a :func:`section` observes its
wall-clock seconds into the active registry's ``<name>_s`` histogram.

This module deliberately imports nothing from ``repro`` — it sits
below every instrumented layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any

__all__ = ["Observation", "activate", "deactivate", "current",
           "current_tracer", "current_metrics", "section", "metric_inc",
           "metric_observe", "metric_set"]


@dataclass
class Observation:
    """The bundle of sinks one ``activate()`` turns on.

    Either field may be ``None``; helpers for that facet stay no-ops.
    Typed ``Any`` to keep this module import-free — in practice
    ``tracer`` is a :class:`repro.obs.tracer.Tracer` and ``metrics`` a
    :class:`repro.obs.metrics.MetricsRegistry`.
    """

    tracer: Any = None
    metrics: Any = None


_ACTIVE: Observation | None = None


class _NullSection:
    """Do-nothing context manager returned when no registry is active."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SECTION = _NullSection()


class _Section:
    """Observes one ``with`` block's wall-clock seconds into a histogram."""

    __slots__ = ("_metrics", "_key", "_start")

    def __init__(self, metrics, key: str):
        self._metrics = metrics
        self._key = key
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._metrics.observe(self._key, perf_counter() - self._start)
        return False


@contextmanager
def activate(obs: Observation):
    """Make ``obs`` the active observation for the dynamic extent.

    Nests: the previous observation (if any) is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = obs
    try:
        yield obs
    finally:
        _ACTIVE = previous


def deactivate() -> None:
    """Drop the active observation for good, restoring nothing.

    For a forked child: it must not record into — or wait on the locks
    of — the sinks it inherited from its parent.
    """
    global _ACTIVE
    _ACTIVE = None


def current() -> Observation | None:
    """The active observation, or ``None``."""
    return _ACTIVE


def current_tracer():
    """The active tracer, or ``None`` (the disabled fast path)."""
    obs = _ACTIVE
    return obs.tracer if obs is not None else None


def current_metrics():
    """The active metrics registry, or ``None``."""
    obs = _ACTIVE
    return obs.metrics if obs is not None else None


def section(name: str):
    """Time the ``with`` block into histogram ``<name>_s`` (else no-op).

    The stage annotation product code uses.  Every exit observes one
    sample, nested blocks of the same name included; with no registry
    active it is one global read, one comparison, and an empty ``with``
    protocol.
    """
    obs = _ACTIVE
    if obs is None or obs.metrics is None:
        return _NULL_SECTION
    return _Section(obs.metrics, name + "_s")


def metric_inc(name: str, amount: int = 1) -> None:
    """Bump counter ``name`` on the active registry (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.inc(name, amount)


def metric_observe(name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.observe(name, value)


def metric_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.set(name, value)
