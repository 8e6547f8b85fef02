"""Fig. 19: end-to-end speed-up and energy, local and remote rendering.

Paper claims (local): SPARW ~8x, +FS adds ~1.2x, full Cicero ~28x speed-up
with energy savings exceeding the speed-up.  Remote: Cicero ~8x faster than
the render-remotely baseline, but the baseline wins on device energy.
"""

from statistics import geometric_mean

from conftest import run_once

from repro.harness import EXPERIMENTS, print_table


def test_fig19_local_and_remote(benchmark, bench_config):
    rows = run_once(benchmark, lambda: EXPERIMENTS["fig19"](bench_config))
    print_table(rows, title="Fig. 19 — end-to-end speed-up / energy")

    sparw = geometric_mean([r["sparw_speedup"] for r in rows])
    fs = geometric_mean([r["sparw_fs_speedup"] for r in rows])
    cicero = geometric_mean([r["cicero_speedup"] for r in rows])

    # Monotone improvement across the variant ladder.
    assert sparw < fs < cicero
    assert 4.0 < sparw < 20.0, "SPARW alone lands near ~8x"
    assert cicero > 15.0, "full Cicero exceeds an order of magnitude"

    for row in rows:
        # Energy is normalised-to-baseline: smaller is better, <1 required.
        assert row["cicero_energy"] < row["sparw_fs_energy"] < row["sparw_energy"] < 1.0
        # Remote: Cicero is fastest but pays more device energy than the
        # everything-offloaded baseline (normalised energy > 1).
        assert row["cicero_remote_speedup"] > 1.0
        assert row["sparw_remote_energy"] > 1.0
