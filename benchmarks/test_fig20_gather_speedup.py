"""Fig. 20: Gathering Unit speed-up/energy vs GPU feature gathering.

Paper claims: the GU delivers large (tens-x) gather speed-ups and nearly
all of the gather energy reduction, with the biggest win on the
hash-grid algorithm whose conflicts it eliminates.
"""

from statistics import geometric_mean

from conftest import run_once

from repro.harness import EXPERIMENTS, print_table


def test_fig20_gather_unit(benchmark, bench_config):
    rows = run_once(benchmark, lambda: EXPERIMENTS["fig20"](bench_config))
    print_table(rows, title="Fig. 20 — GU gather speed-up / energy")

    mean_speed = geometric_mean([r["gather_speedup"] for r in rows])
    assert mean_speed > 10.0, "GU gathers an order of magnitude faster"
    # The algorithm whose layout conflicts worst gains the most from the
    # conflict-free GU (the causal link the paper draws).
    most_conflicted = max(rows, key=lambda r: r["conflict_slowdown_removed"])
    fastest_gain = max(rows, key=lambda r: r["gather_speedup"])
    assert most_conflicted["algorithm"] == fastest_gain["algorithm"]
    for row in rows:
        assert row["gather_energy_saving"] > 5.0
        assert row["conflict_slowdown_removed"] >= 1.0
