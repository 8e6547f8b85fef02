"""Tests for the DRAM model and energy constants."""

import numpy as np
import pytest

from repro.memsys import DEFAULT_ENERGY, DRAMConfig, DRAMModel, EnergyModel
from repro.memsys.trace import AccessTrace, analyze_streaming


class TestEnergyModel:
    def test_paper_ratios(self):
        e = DEFAULT_ENERGY
        assert e.dram_random_pj_per_byte / e.dram_stream_pj_per_byte == (
            pytest.approx(3.0))
        assert e.dram_random_pj_per_byte / e.sram_pj_per_byte == (
            pytest.approx(25.0))

    def test_dram_energy_mix(self):
        e = EnergyModel()
        only_stream = e.dram_energy(1e6, 0)
        only_random = e.dram_energy(0, 1e6)
        assert only_random == pytest.approx(3.0 * only_stream)

    def test_sram_cheaper_than_dram(self):
        e = EnergyModel()
        assert e.sram_energy(1e6) < e.dram_energy(1e6, 0)

    def test_wireless_constants(self):
        e = EnergyModel()
        assert e.wireless_energy(1.0) == pytest.approx(100e-9)
        assert e.wireless_latency(10e6) == pytest.approx(1.0)

    def test_mac_energy(self):
        e = EnergyModel()
        assert e.mac_energy(1e12) == pytest.approx(0.25)


class TestDRAMModel:
    def test_streaming_faster_than_random(self):
        model = DRAMModel()
        stream = model.cost_of_bytes(1e6, 0)
        random = model.cost_of_bytes(0, 1e6)
        assert stream.time_s < random.time_s
        assert stream.energy_j < random.energy_j

    def test_cost_of_trace_classifies(self):
        model = DRAMModel()
        seq = AccessTrace(addresses=np.arange(100) * 64,
                          sizes=np.full(100, 64))
        rng = np.random.default_rng(0)
        rand = AccessTrace(addresses=rng.integers(0, 1 << 30, 100) * 64,
                           sizes=np.full(100, 64))

        def cost(trace):
            analysis = analyze_streaming(trace)
            return model.cost_of_bytes(analysis.streaming_bytes,
                                       analysis.random_bytes)

        assert cost(seq).streaming_fraction > 0.9
        assert cost(rand).streaming_fraction < 0.1
        assert cost(seq).total_bytes == cost(rand).total_bytes == 6400

    def test_merge(self):
        model = DRAMModel()
        a = model.cost_of_bytes(100, 0)
        b = model.cost_of_bytes(0, 200)
        c = a.merge(b)
        assert c.total_bytes == 300
        assert c.energy_j == pytest.approx(a.energy_j + b.energy_j)

    def test_config_bandwidths(self):
        config = DRAMConfig()
        assert config.stream_bw > config.random_bw
