"""Counters, gauges, and fixed-bucket latency histograms.

A :class:`MetricsRegistry` is the numeric half of the observability
backbone (:mod:`repro.obs`): product layers bump named counters, set
gauges, and observe latencies into histograms, and the harness
snapshots the whole registry into every ``BENCH_*.json`` artifact under
a ``metrics`` key.  Everything is plain accumulation — recording a
metric never touches the quantity being measured, so instrumented runs
stay bit-identical to uninstrumented ones.

Histograms use *fixed* bucket boundaries (a 1-2-5 ladder spanning
100 us to 100 s by default) so snapshots from different runs are
mergeable/comparable bucket by bucket; p50/p95/p99/p99.9 are estimated
by linear interpolation inside the winning bucket and clamped to the
observed min/max, so every quantile of a non-empty histogram is finite.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = ["DEFAULT_LATENCY_BOUNDS", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "QUANTILES"]

# 1-2-5 ladder (seconds): wide enough for per-frame latencies at every
# scale the harness simulates, fixed so any two snapshots share buckets.
DEFAULT_LATENCY_BOUNDS = (
    0.0001, 0.0002, 0.0005,
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
    10.0, 20.0, 50.0, 100.0,
)

# The tail summary every histogram snapshot carries (keys are the
# artifact field names).
QUANTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0),
             ("p99.9", 99.9))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = str(name)
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot add {amount}")
        self.value += int(amount)


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = str(name)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the measured quantity."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with interpolated tail quantiles.

    ``bounds`` are the ascending bucket upper edges; observations above
    the last edge land in an overflow bucket whose effective upper edge
    is the observed maximum (keeping every quantile finite).

    Non-finite observations (NaN/inf) are dropped and counted in
    ``dropped`` instead of folded in: a NaN would land via
    ``bisect_left``'s undefined ordering and poison ``min_value``/
    ``max_value``, making :meth:`snapshot` fail the strict-JSON
    (``allow_nan=False``) artifact write.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min_value", "max_value", "dropped")

    def __init__(self, name: str, bounds=DEFAULT_LATENCY_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise ValueError("bounds must be a non-empty ascending tuple")
        self.name = str(name)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # [+1 overflow bucket]
        self.count = 0
        self.total = 0.0
        self.min_value = 0.0
        self.max_value = 0.0
        self.dropped = 0  # non-finite observations rejected

    def observe(self, value: float) -> None:
        """Fold one sample into the distribution (non-finite: dropped)."""
        value = float(value)
        if not math.isfinite(value):
            self.dropped += 1
            return
        if self.count == 0:
            self.min_value = self.max_value = value
        else:
            self.min_value = min(self.min_value, value)
            self.max_value = max(self.max_value, value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimated value at ``pct`` (linear inside the winning bucket).

        0.0 before any sample; always finite and clamped to the
        observed [min, max] otherwise.
        """
        if self.count == 0:
            return 0.0
        target = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = (self.bounds[index - 1] if index > 0
                         else self.min_value)
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.max_value)
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(fraction, 0.0)
                return min(max(estimate, self.min_value), self.max_value)
            cumulative += bucket_count
        return self.max_value

    def snapshot(self) -> dict:
        """JSON-able summary: count/sum/min/max/mean + tail quantiles.

        ``buckets`` maps each *non-empty* bucket's upper edge (``"inf"``
        for the overflow bucket) to its count, so artifacts stay small
        when most buckets are empty.
        """
        edges = [str(b) for b in self.bounds] + ["inf"]
        row = {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
            "buckets": {edge: count
                        for edge, count in zip(edges, self.counts)
                        if count},
        }
        if self.dropped:
            row["dropped"] = self.dropped
        for key, pct in QUANTILES:
            row[key] = self.percentile(pct)
        return row


class MetricsRegistry:
    """Named counters/gauges/histograms behind one snapshot call.

    Recording (``inc``/``set``/``observe``) and the get-or-create
    accessors are guarded by one lock, so worker threads of the live
    frame server can bump shared metrics without losing updates (a bare
    ``value += n`` is a read-modify-write race under threads).  The
    individual metric objects stay lock-free for single-threaded use.
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return (len(self.counters) + len(self.gauges)
                + len(self.histograms))

    # -- get-or-create accessors ----------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            with self._lock:
                counter = self.counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self.gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self.histograms.setdefault(name, Histogram(name))
        return histogram

    # -- recording shorthands --------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` by ``amount`` (thread-safe)."""
        counter = self.counter(name)
        with self._lock:
            counter.add(amount)

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (thread-safe)."""
        gauge = self.gauge(name)
        with self._lock:
            gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (thread-safe)."""
        histogram = self.histogram(name)
        with self._lock:
            histogram.observe(value)

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able state of every metric, sorted by name."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())},
        }
