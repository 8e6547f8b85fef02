"""One quality switch on every path.

A tier switch landing at frame ``k`` is a fresh SPARW pipeline stepping
the whole trajectory from ``k``: global frame indices, the trajectory's
window grid, references extrapolated from the real past poses.  The
engine governor (``serve``, ``serve-live``), a cluster worker's retune
and a session built at that frame must therefore render bit-identical
records from ``k`` on, for every registered workload.
"""

import pytest

from repro.cluster.worker import Worker
from repro.control import EngineGovernor
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.server.protocol import frame_digest
from repro.workloads import WORKLOADS

LEVEL = 1  # the switch: native tier -> one rung down


def _view(records):
    return [(r.frame_index, r.new_reference, frame_digest(r.frame),
             r.sparse_stats, r.reference_stats) for r in records]


def engine_path(spec, stage_after):
    """Records of a governed engine session switched after ``stage_after``
    observed frames, and the frame the switch landed at."""
    session = spec.build_session("engine", FAST)
    governor = EngineGovernor(FAST, mode="adaptive")
    observed = []

    def observe(session_id, latency_s):
        observed.append(latency_s)
        return LEVEL if len(observed) == stage_after else None

    governor.governor.observe = observe
    landing = []
    stage = session.retune

    def spy(sparw, *args):
        # The frame in flight is started; the next one is the landing.
        landing.append(session.start + session.frames_completed + 1)
        stage(sparw, *args)

    session.retune = spy
    MultiSessionEngine([session], governor=governor).run()
    (k,) = landing
    assert session.quality_level == LEVEL
    sizes = [r.frame.image.shape[0] for r in session.result.records]
    native = spec.resolve_config(FAST).image_size
    switched = spec.resolve_config(FAST, LEVEL).image_size
    assert sizes == [native] * k + [switched] * (len(sizes) - k)
    return k, session.result.records[k:]


def worker_path(spec, k):
    """Records a cluster worker re-renders when it retunes at frame ``k``."""
    worker = Worker("w00", FAST)
    rendered = []
    render = worker._render

    def spy(*args, **kwargs):
        rendered.append(render(*args, **kwargs))
        return rendered[-1]

    worker._render = spy
    placed = worker.admit("cluster", spec, 0.0)
    placed.next_frame = k
    assert worker.retune_session(placed, LEVEL) == len(placed.frame_costs) - k
    assert placed.frame_levels == [0] * k + [LEVEL] * (
        len(placed.frame_levels) - k)
    return rendered[-1].result.records


def builder_path(spec, k):
    """Records of a session the spec builds at the new rung from ``k``."""
    session = spec.build_session("built", FAST, level=LEVEL, start=k)
    MultiSessionEngine([session]).run()
    return session.result.records


@pytest.mark.parametrize("stage_after", [1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_switch_renders_the_same_frames_on_every_path(name, stage_after):
    spec = WORKLOADS[name]
    k, engine = engine_path(spec, stage_after)
    assert 0 < k < spec.num_frames(FAST)
    assert engine[0].frame_index == k and engine[0].new_reference
    want = _view(engine)
    assert _view(worker_path(spec, k)) == want
    assert _view(builder_path(spec, k)) == want
