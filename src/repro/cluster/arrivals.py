"""Open-loop arrival processes: when sessions arrive and what they render.

The closed-loop serving harness hands a fixed session list to one engine;
the cluster simulator instead consumes a *schedule of arrivals* — sessions
materialise over virtual time and must be admitted, placed, and served as
they come.  This module generates those schedules from a workload mix
(the same ``NAME[:N]`` mixes ``cli serve`` takes, with counts acting as
popularity weights):

* ``poisson`` — memoryless arrivals at a constant mean rate.
* ``deterministic`` — evenly spaced arrivals cycling through the mix.
* ``diurnal`` — an inhomogeneous Poisson process (sinusoidal rate profile
  between a trough and the peak rate) via thinning.

Every generator is deterministic given ``(mix, rate, duration, seed)``, so
a cluster run is reproducible end to end from ``--seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..workloads import WorkloadSpec, parse_mix

__all__ = [
    "Arrival", "poisson_arrivals", "deterministic_arrivals",
    "diurnal_arrivals", "ARRIVAL_KINDS", "DEFAULT_CLUSTER_MIX",
    "make_arrivals",
]

# The mix an arrival-driven run (cluster, loadgen) replays when
# none is given.  Popularity-skewed: over half the arrivals share the
# vr-lego cache key, so co-locating them (cache_affinity) visibly beats
# spreading them (round_robin) on the cluster-wide reference-cache hit
# rate.
DEFAULT_CLUSTER_MIX = "vr-lego:4,dolly-chair:2,vr-headshake:1"


@dataclass(frozen=True)
class Arrival:
    """One session arriving at the cluster front door."""

    time_s: float
    spec: WorkloadSpec


class _WeightedSpecs:
    """Count-weighted index→spec view of a mix, without materialising it.

    Behaves exactly like the flattened ``[spec] * count`` multiplicity
    list (same length, same index→spec mapping), so uniform index draws
    stay bit-identical to the historical expanded-list sampling — but
    stores one cumulative-count array instead of ``sum(counts)`` spec
    references, which matters once zipfian catalog mixes carry
    thousands of weight units.
    """

    def __init__(self, pairs: list):
        self._specs = [spec for spec, _ in pairs]
        self._cum = np.cumsum([count for _, count in pairs])

    def __len__(self) -> int:
        return int(self._cum[-1])

    def __getitem__(self, index: int):
        return self._specs[int(np.searchsorted(self._cum, index,
                                               side="right"))]


def _expand_mix(mix) -> _WeightedSpecs:
    """Mix as a count-weighted indexable view.

    Sampling an index uniformly from the view is exactly count-weighted
    sampling, and cycling it in order reproduces the mix ratios
    deterministically.
    """
    return _WeightedSpecs(parse_mix(mix))


def _check_rate_duration(rate_hz: float, duration_s: float) -> None:
    # An infinite rate draws zero gaps and an infinite window never
    # closes: either would grow the schedule forever.
    if not (rate_hz > 0.0 and math.isfinite(rate_hz)):
        raise ValueError(f"arrival rate must be finite and > 0, "
                         f"got {rate_hz}")
    if not (duration_s > 0.0 and math.isfinite(duration_s)):
        raise ValueError(f"arrival duration must be finite and > 0, "
                         f"got {duration_s}")


def deterministic_arrivals(mix, rate_hz: float, duration_s: float,
                           seed: int = 0) -> list:
    """Evenly spaced arrivals cycling through the mix (seed unused)."""
    _check_rate_duration(rate_hz, duration_s)
    specs = _expand_mix(mix)
    interval = 1.0 / rate_hz
    arrivals = []
    index = 0
    while index * interval < duration_s:
        arrivals.append(Arrival(time_s=index * interval,
                                spec=specs[index % len(specs)]))
        index += 1
    return arrivals


def poisson_arrivals(mix, rate_hz: float, duration_s: float,
                     seed: int = 0) -> list:
    """Homogeneous Poisson arrivals; specs sampled count-weighted."""
    _check_rate_duration(rate_hz, duration_s)
    specs = _expand_mix(mix)
    rng = np.random.default_rng(seed)
    arrivals = []
    t = float(rng.exponential(1.0 / rate_hz))
    while t < duration_s:
        arrivals.append(Arrival(time_s=t,
                                spec=specs[int(rng.integers(len(specs)))]))
        t += float(rng.exponential(1.0 / rate_hz))
    return arrivals


# The diurnal profile's swing: the trough is this share below the peak.
# Its period is the whole arrival window, one trough-to-trough day.
DIURNAL_DEPTH = 0.8


def diurnal_arrivals(mix, rate_hz: float, duration_s: float,
                     seed: int = 0) -> list:
    """Inhomogeneous Poisson arrivals with a sinusoidal daily profile.

    ``rate_hz`` is the *peak* rate; the instantaneous rate swings between
    ``(1 - DIURNAL_DEPTH) * rate_hz`` (trough, at t = 0 and t =
    ``duration_s``) and ``rate_hz`` (peak, half-way) following ``1 -
    DIURNAL_DEPTH/2 * (1 + cos(2*pi*t/duration_s))``.  Generated by thinning a
    homogeneous peak-rate process, so the schedule stays exactly
    reproducible from the seed.
    """
    _check_rate_duration(rate_hz, duration_s)
    specs = _expand_mix(mix)
    rng = np.random.default_rng(seed)
    arrivals = []
    t = float(rng.exponential(1.0 / rate_hz))
    while t < duration_s:
        acceptance = 1.0 - DIURNAL_DEPTH * 0.5 * (
            1.0 + math.cos(2.0 * math.pi * t / duration_s))
        if float(rng.random()) < acceptance:
            arrivals.append(Arrival(
                time_s=t, spec=specs[int(rng.integers(len(specs)))]))
        t += float(rng.exponential(1.0 / rate_hz))
    return arrivals


_GENERATORS = {
    "poisson": poisson_arrivals,
    "deterministic": deterministic_arrivals,
    "diurnal": diurnal_arrivals,
}

ARRIVAL_KINDS = tuple(sorted(_GENERATORS))


def make_arrivals(kind: str, mix, rate_hz: float = 1.0,
                  duration_s: float = 10.0, seed: int = 0) -> list:
    """Arrival schedule by generator name (see :data:`ARRIVAL_KINDS`)."""
    try:
        generator = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown arrival process {kind!r}; one of "
                         f"{ARRIVAL_KINDS}") from None
    return generator(mix, rate_hz, duration_s, seed=seed)
