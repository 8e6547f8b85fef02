"""MetricsRegistry: counter/gauge/histogram semantics and snapshots."""

import json
import math

import pytest

from repro.harness.reporting import safe_json_dumps
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, QUANTILES


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot add"):
            Counter("c").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_default_bounds_ascend_strictly_with_one_overflow_bucket(self):
        bounds = DEFAULT_LATENCY_BOUNDS
        assert all(low < high for low, high in zip(bounds, bounds[1:]))
        assert bounds[0] > 0.0
        hist = Histogram("h")
        assert hist.bounds == bounds
        assert len(hist.counts) == len(bounds) + 1

    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["buckets"] == {}
        assert all(snap[key] == 0.0 for key, _ in QUANTILES)

    def test_counts_mean_min_max(self):
        hist = Histogram("h")
        for value in (0.001, 0.004, 0.04):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min_value == 0.001
        assert hist.max_value == 0.04
        assert hist.mean == pytest.approx(0.045 / 3)

    def test_bucket_edges_are_upper_inclusive_lower_exclusive(self):
        # bisect_left(bounds, v) puts a value exactly on an edge into
        # the bucket whose upper edge it is.
        hist = Histogram("h")
        low, high = DEFAULT_LATENCY_BOUNDS[:2]
        for value in (low / 2, low, (low + high) / 2, high,
                      DEFAULT_LATENCY_BOUNDS[-1] * 2):
            hist.observe(value)
        assert hist.counts[:2] == [2, 2] and hist.counts[-1] == 1
        assert sum(hist.counts) == 5

    def test_overflow_bucket_keeps_quantiles_finite(self):
        hist = Histogram("h")
        beyond = DEFAULT_LATENCY_BOUNDS[-1] * 10
        for _ in range(100):
            hist.observe(beyond)
        for key, pct in QUANTILES:
            value = hist.percentile(pct)
            assert math.isfinite(value)
            assert value == beyond  # clamped to the observed max

    def test_percentiles_are_ordered_and_clamped(self):
        hist = Histogram("h")
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1ms .. 100ms
        p50, p95, p99 = (hist.percentile(p) for p in (50, 95, 99))
        assert hist.min_value <= p50 <= p95 <= p99 <= hist.max_value
        # The median of a uniform 1..100ms sweep sits near 50ms.
        assert 0.02 <= p50 <= 0.08

    def test_single_sample_quantiles_collapse_to_it(self):
        hist = Histogram("h")
        hist.observe(0.0042)
        assert all(hist.percentile(pct) == 0.0042 for _, pct in QUANTILES)

    def test_snapshot_shape_and_sparse_buckets(self):
        hist = Histogram("h")
        first, last = DEFAULT_LATENCY_BOUNDS[0], DEFAULT_LATENCY_BOUNDS[-1]
        hist.observe(first / 2)
        hist.observe(last * 2)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == first / 2 + last * 2
        assert snap["buckets"] == {str(first): 1, "inf": 1}


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_shorthands_record(self):
        registry = MetricsRegistry()
        registry.inc("hits", 2)
        registry.set("fleet", 4)
        registry.observe("lat", 0.01)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 2}
        assert snap["gauges"] == {"fleet": 4.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_is_strict_json(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1e9)  # overflow bucket in play
        text = safe_json_dumps(registry.snapshot())
        def reject(token):
            raise AssertionError(f"non-strict constant {token!r}")
        back = json.loads(text, parse_constant=reject)
        assert back["histograms"]["lat"]["p99.9"] == 1e9


class TestHistogramNonFinite:
    """Non-finite observations must be dropped, not folded in.

    Pre-fix, ``observe(nan)`` poisoned ``min_value``/``max_value`` (and
    NaN's undefined ordering under ``bisect_left`` put it in an
    arbitrary bucket), making the strict-JSON (``allow_nan=False``)
    artifact write fail at the end of an otherwise-healthy run.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dropped_and_counted(self, bad):
        histogram = Histogram("lat")
        histogram.observe(0.01)
        histogram.observe(bad)
        assert histogram.count == 1
        assert histogram.dropped == 1
        assert histogram.mean == pytest.approx(0.01)
        assert histogram.min_value == histogram.max_value == 0.01

    def test_snapshot_stays_strict_json_after_nan(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.02)
        registry.observe("lat", math.nan)
        registry.observe("lat", math.inf)
        text = safe_json_dumps(registry.snapshot())

        def reject(token):
            raise AssertionError(f"non-strict constant {token!r}")

        back = json.loads(text, parse_constant=reject)
        row = back["histograms"]["lat"]
        assert row["count"] == 1
        assert row["dropped"] == 2
        assert all(math.isfinite(row[key]) for key, _ in QUANTILES)

    def test_dropped_key_absent_when_clean(self):
        histogram = Histogram("lat")
        histogram.observe(0.01)
        assert "dropped" not in histogram.snapshot()

    def test_only_nan_observations_snapshot_as_empty(self):
        histogram = Histogram("lat")
        histogram.observe(math.nan)
        row = histogram.snapshot()
        assert row["count"] == 0
        assert row["dropped"] == 1
        assert row["buckets"] == {}
