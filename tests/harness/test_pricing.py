"""Frame economics and the frontier ``--rates`` list."""

import math

import pytest

from repro.harness.pricing import DEFAULT_COST, CostModel, frame_economics
from repro.harness.runconfig import RunConfigError, parse_rates


class TestCostModel:
    def test_usd_per_joule_from_kwh_price(self):
        cost = CostModel(electricity_usd_per_kwh=0.36)
        assert cost.usd_per_joule == pytest.approx(1e-7)

    def test_busy_second_amortises_capital(self):
        cost = CostModel(soc_capital_usd=100.0, soc_lifetime_s=1000.0)
        assert cost.usd_per_busy_second == pytest.approx(0.1)

    def test_run_cost_adds_energy_and_time(self):
        cost = CostModel(electricity_usd_per_kwh=0.36, soc_capital_usd=100.0,
                         soc_lifetime_s=1000.0)
        assert cost.run_cost_usd(2e7, 3.0) == pytest.approx(2.0 + 0.3)
        assert cost.run_cost_usd(0.0, 0.0) == 0.0


class TestFrameEconomics:
    def test_per_frame_columns(self):
        row = frame_economics(4, energy_j=8.0, busy_s=2.0)
        assert row["total_energy_j"] == 8.0
        assert row["joules_per_frame"] == pytest.approx(2.0)
        assert row["usd_per_frame"] == pytest.approx(
            DEFAULT_COST.run_cost_usd(8.0, 2.0) / 4)

    def test_zero_frames_report_finite_zeros(self):
        row = frame_economics(0, energy_j=5.0, busy_s=1.0)
        assert row == {"total_energy_j": 5.0, "joules_per_frame": 0.0,
                       "usd_per_frame": 0.0}
        assert all(math.isfinite(v) for v in row.values())

    def test_cost_model_is_a_parameter(self):
        cheap = CostModel(electricity_usd_per_kwh=0.0, soc_capital_usd=0.0)
        row = frame_economics(3, energy_j=9.0, busy_s=1.0, cost=cheap)
        assert row["usd_per_frame"] == 0.0
        assert row["joules_per_frame"] == pytest.approx(3.0)


class TestParseRates:
    def test_comma_list_with_blanks(self):
        assert parse_rates("1, 2.5,4,") == (1.0, 2.5, 4.0)

    @pytest.mark.parametrize("text", ["1,2", "1,0,2", "1,-2,3", "a,b,c", ""])
    def test_rejected(self, text):
        with pytest.raises(RunConfigError):
            parse_rates(text)
