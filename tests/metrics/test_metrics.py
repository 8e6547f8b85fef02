"""Tests for quality metrics and summary statistics."""

import numpy as np
import pytest

from repro.metrics import (
    mean_or_zero,
    mean_psnr,
    mse,
    percentile_or_zero,
    psnr,
)
from repro.metrics.stats import (
    LATENCY_KEYS,
    FrameTimeline,
    in_ms,
    latency_summary,
    request_time,
    time_to_first_frame,
)


class TestMSEPSNR:
    def test_identical_images(self):
        img = np.random.default_rng(0).uniform(size=(8, 8, 3))
        assert mse(img, img) == 0.0
        assert psnr(img, img) == float("inf")

    def test_known_value(self):
        a = np.zeros((4, 4, 3))
        b = np.full((4, 4, 3), 0.1)
        assert mse(a, b) == pytest.approx(0.01)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))

    def test_sequence_helpers(self):
        a = [np.zeros((4, 4, 3))] * 3
        b = [np.full((4, 4, 3), 0.1)] * 3
        assert mean_psnr(a, b) == pytest.approx(20.0)

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_psnr([np.zeros((2, 2, 3))], [])

    def test_empty_sequence_is_lossless(self):
        assert mean_psnr([], []) == float("inf")

    def test_mean_psnr_pools_mse(self):
        """Pooled PSNR differs from averaging per-frame PSNRs."""
        a = [np.zeros((2, 2, 3)), np.zeros((2, 2, 3))]
        b = [np.full((2, 2, 3), 0.1), np.full((2, 2, 3), 0.2)]
        pooled = mean_psnr(a, b)
        expected = 10 * np.log10(1.0 / np.mean([0.01, 0.04]))
        assert pooled == pytest.approx(expected)


class TestStats:
    def test_arithmetic_mean(self):
        assert mean_or_zero([1.0, 3.0]) == pytest.approx(2.0)
        assert mean_or_zero(iter([2.0, 4.0, 6.0])) == pytest.approx(4.0)

    def test_mean_of_nothing_is_zero(self):
        assert mean_or_zero([]) == 0.0

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile_or_zero(values, 50) == pytest.approx(3.0)
        assert percentile_or_zero(values, 95) == pytest.approx(4.8)
        assert percentile_or_zero(iter(values), 0) == pytest.approx(1.0)

    def test_percentile_of_nothing_is_zero(self):
        assert percentile_or_zero([], 99) == 0.0


def _summary(ttff_mean, ttff_p95, mean, p50, p95, p99, worst):
    return dict(zip(LATENCY_KEYS, (ttff_mean, ttff_p95, mean, p50, p95,
                                   p99, worst)))


ZEROS = _summary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
T = FrameTimeline


class TestFrameTimeline:
    @pytest.mark.parametrize("sessions, expected", [
        # Nothing served: every key reads zero.
        ([], ZEROS),
        # A session that delivered nothing adds no TTFF sample.
        ([(2.0, [])], ZEROS),
        # One frame: latency is delivery minus request, TTFF minus arrival.
        ([(1.0, [T(1.25, 1.5, 2.0)])],
         _summary(1.0, 1.0, 0.75, 0.75, 0.75, 0.75, 0.75)),
        # A frame delivered before its request instant reads 0.
        ([(0.0, [T(1.0, 0.5, 0.75)])],
         _summary(0.75, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0)),
        # Frames pool across sessions; percentiles interpolate linearly.
        ([(0.0, [T(0.0, 0.0, 0.5), T(0.5, 0.5, 1.5)]),
          (1.0, [T(1.0, 1.5, 3.0)])],
         _summary(1.25, 0.5 + 0.95 * 1.5, 3.5 / 3, 1.0, 1.9, 1.98, 2.0)),
    ])
    def test_latency_summary_table(self, sessions, expected):
        summary = latency_summary(sessions)
        assert list(summary) == list(LATENCY_KEYS)
        assert summary == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_request_time_is_open_loop_from_arrival(self):
        assert request_time(0.0, 0, 30.0) == 0.0
        assert request_time(2.0, 3, 30.0) == 2.0 + 3 / 30.0

    def test_time_to_first_frame(self):
        assert time_to_first_frame(1.0, [T(1.0, 1.0, 1.5),
                                         T(1.5, 1.5, 9.0)]) == 0.5
        assert time_to_first_frame(1.0, []) == 0.0

    def test_in_ms_renames_and_scales(self):
        assert in_ms({"p99_latency_s": 0.25, "ttff_mean_s": 2.0}) == {
            "p99_latency_ms": 250.0, "ttff_mean_ms": 2000.0}
