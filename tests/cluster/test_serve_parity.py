"""One SoC queue, two callers: a cluster worker and batch ``serve``.

A one-worker cluster that admits every session at t = 0 (and has room
for all of them) steps its :class:`~repro.hw.serving.SocQueue` on the
simulator's event clock; batch ``serve`` drains one with every cost
known.  Over the same frame costs both give every frame the same
``(request, start, finish)`` timeline.
"""

import pytest

from repro.cluster import ClusterSimulator
from repro.cluster.arrivals import Arrival
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.hw.serving import aggregate_serving
from repro.hw.soc import SoCModel
from repro.workloads import get_workload, make_reference_cache

FRAMES, SEED = 4, 3


@pytest.mark.parametrize("names", [
    ("vr-lego", "vr-lego", "dolly-chair", "orbit-ngp"),
    ("walk-materials", "vr-headshake", "preview-ship")])
def test_one_worker_cluster_times_frames_as_batch_serve(names):
    specs = [get_workload(name) for name in names]
    simulator = ClusterSimulator(FAST, workers=1, queue_limit=len(specs),
                                 frames=FRAMES, seed=SEED)
    report = simulator.run([Arrival(0.0, spec) for spec in specs])
    assert report.admitted == len(specs)
    (worker,) = simulator.workers
    placed = sorted(worker.completed, key=lambda p: p.session_id)

    # The sessions the worker rendered, built and priced the serve way.
    sessions = [
        spec.with_overrides(frames=FRAMES, seed_offset=SEED).build_session(
            p.session_id, FAST) for spec, p in zip(specs, placed)]
    MultiSessionEngine(sessions,
                       reference_cache=make_reference_cache()).run()
    serve = aggregate_serving(
        {s.session_id: s.result for s in sessions},
        soc=SoCModel(feature_dim=FAST.feature_dim),
        variants={s.session_id: s.workload.variant for s in sessions},
        fps_targets={s.session_id: s.fps_target for s in sessions})

    assert [sum(p.costs) for p in placed] == [
        s.busy_s for s in serve.per_session]
    assert [p.timelines for p in placed] == [
        s.timelines for s in serve.per_session]
    assert report.p99_latency_s == serve.p99_latency_s
    assert report.makespan_s == serve.makespan_s
