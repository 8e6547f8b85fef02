"""Arrival-process tests: determinism and rate shapes."""

import math

import pytest

from repro.cluster import (
    deterministic_arrivals,
    diurnal_arrivals,
    make_arrivals,
    poisson_arrivals,
)

MIX = "vr-lego:2,dolly-chair"


def times(arrivals):
    return [a.time_s for a in arrivals]


class TestPoisson:
    def test_deterministic_per_seed(self):
        a = poisson_arrivals(MIX, rate_hz=2.0, duration_s=20.0, seed=7)
        b = poisson_arrivals(MIX, rate_hz=2.0, duration_s=20.0, seed=7)
        assert times(a) == times(b)
        assert [x.spec.name for x in a] == [x.spec.name for x in b]

    def test_seed_changes_schedule(self):
        a = poisson_arrivals(MIX, rate_hz=2.0, duration_s=20.0, seed=0)
        b = poisson_arrivals(MIX, rate_hz=2.0, duration_s=20.0, seed=1)
        assert times(a) != times(b)

    def test_within_window_and_sorted(self):
        a = poisson_arrivals(MIX, rate_hz=3.0, duration_s=10.0, seed=0)
        assert all(0.0 <= t < 10.0 for t in times(a))
        assert times(a) == sorted(times(a))

    def test_rate_scales_volume(self):
        slow = poisson_arrivals(MIX, rate_hz=0.5, duration_s=40.0, seed=0)
        fast = poisson_arrivals(MIX, rate_hz=5.0, duration_s=40.0, seed=0)
        assert len(fast) > 2 * len(slow)

    def test_counts_weight_sampling(self):
        a = poisson_arrivals("vr-lego:9,dolly-chair:1", rate_hz=10.0,
                             duration_s=50.0, seed=0)
        names = [x.spec.name for x in a]
        assert names.count("vr-lego") > names.count("dolly-chair")

    def test_invalid_rate_duration(self):
        with pytest.raises(ValueError):
            poisson_arrivals(MIX, rate_hz=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(MIX, rate_hz=1.0, duration_s=0.0)


class TestDeterministic:
    def test_evenly_spaced_cycling(self):
        a = deterministic_arrivals(MIX, rate_hz=2.0, duration_s=2.0)
        assert times(a) == pytest.approx([0.0, 0.5, 1.0, 1.5])
        # Cycles the expanded mix: lego, lego, chair, lego, ...
        assert [x.spec.name for x in a] == [
            "vr-lego", "vr-lego", "dolly-chair", "vr-lego"]


class TestDiurnal:
    def test_thinning_reduces_volume(self):
        flat = poisson_arrivals(MIX, rate_hz=5.0, duration_s=40.0, seed=0)
        shaped = diurnal_arrivals(MIX, rate_hz=5.0, duration_s=40.0,
                                  seed=0)
        assert 0 < len(shaped) < len(flat)

    def test_deterministic_per_seed(self):
        a = diurnal_arrivals(MIX, rate_hz=5.0, duration_s=20.0, seed=3)
        b = diurnal_arrivals(MIX, rate_hz=5.0, duration_s=20.0, seed=3)
        assert times(a) == times(b)

    def test_peak_denser_than_trough(self):
        # Rate profile troughs at t=0 and peaks half-way through.
        a = diurnal_arrivals(MIX, rate_hz=10.0, duration_s=100.0, seed=0)
        first_quarter = sum(1 for t in times(a) if t < 25.0)
        middle = sum(1 for t in times(a) if 37.5 <= t < 62.5)
        assert middle > first_quarter


class TestRegistry:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals("bursty", MIX)

    @pytest.mark.parametrize("kind", ["poisson", "deterministic", "diurnal"])
    @pytest.mark.parametrize("rate_hz, duration_s", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_rate_duration_rejected(self, kind, rate_hz,
                                               duration_s):
        # An infinite rate draws zero gaps, an infinite window never
        # closes: both would grow the schedule until memory runs out.
        with pytest.raises(ValueError, match="finite"):
            make_arrivals(kind, MIX, rate_hz=rate_hz, duration_s=duration_s)
