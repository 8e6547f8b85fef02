"""Fig. 17: pure-software Cicero on the mobile GPU vs DS-2.

Paper claims: software-only Cicero-16 achieves ~8x speed-up and energy
saving over the GPU baseline; DS-2 only reaches ~4x.
"""

from statistics import geometric_mean

from conftest import run_once

from repro.harness import EXPERIMENTS, print_table


def test_fig17_software_speedup(benchmark, bench_config):
    rows = run_once(benchmark, lambda: EXPERIMENTS["fig17"](bench_config))
    print_table(rows, title="Fig. 17 — GPU-only speed-up / energy vs DS-2")

    cicero_speed = geometric_mean([r["cicero_speedup"] for r in rows])
    ds2_speed = geometric_mean([r["ds2_speedup"] for r in rows])
    assert cicero_speed > ds2_speed, "Cicero must beat DS-2 in speed"
    assert 4.0 < cicero_speed < 30.0, "software Cicero lands near ~8-15x"
    assert abs(ds2_speed - 4.0) < 0.5, "DS-2 is a fixed ~4x ray reduction"
    for row in rows:
        assert row["cicero_energy_saving"] > row["ds2_energy_saving"]
