"""In-round coalescing: a round evaluates each distinct ray bundle once.

While a reference cache is attached (the engine shares work across
sessions exactly then), members of one render group whose pending rays
are bit-identical share one evaluation: lockstep copies of a workload
send one sparse fill to the field, not one each.  Sharing changes host
time only, so every frame, record and statistic must equal a run that
renders every request.  The oracle for "renders every request" is the
same engine with ``rays_hash`` made unique per call (no two requests
ever match), which is what the engine did before it coalesced; there is
no flag.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from instruments import session_of
from repro.backend.parallel import WorkerPool
from repro.control import EngineGovernor
from repro.core.sparw.pipeline import RayRequest
from repro.engine import MultiSessionEngine, RenderSession
from repro.engine import engine as engine_module
from repro.harness.configs import FAST
from repro.nerf.renderer import NeRFRenderer
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observation, activate
from repro.workloads import SharedLRUCache, build_mixed_sessions, rays_hash

# vr-lego copies run in lockstep; dolly-chair is a second render group.
MIX = "vr-lego:3,dolly-chair"
FRAMES = 4


def _cache():
    return SharedLRUCache(name="test-references", max_entries=64)


def _never_coalesce(patch):
    """Make every request's rays hash unique: nothing is ever shared."""
    fresh = itertools.count()
    patch.setattr(engine_module, "rays_hash",
                  lambda origins, directions: f"unique-{next(fresh)}")


def _hashes(bundles):
    return [rays_hash(o, d) for o, d in bundles]


def _distinct(hashes):
    return list(dict.fromkeys(hashes))


@pytest.fixture
def render_calls(monkeypatch):
    """Every serial ``render_ray_batch`` call's bundle hashes, in order."""
    calls = []
    render = NeRFRenderer.render_ray_batch

    def spy(self, bundles):
        calls.append(_hashes(bundles))
        return render(self, bundles)
    monkeypatch.setattr(NeRFRenderer, "render_ray_batch", spy)
    return calls


def _run(reference_cache, **engine_kwargs):
    sessions = build_mixed_sessions(MIX, FAST, frames=FRAMES)
    return MultiSessionEngine(sessions, reference_cache=reference_cache,
                              **engine_kwargs).run()


def _assert_same_sessions(got, want):
    for solo in want.sessions:
        twin = session_of(got, solo.session_id).result
        assert twin.num_frames == solo.result.num_frames == FRAMES
        for gr, wr in zip(twin.records, solo.result.records):
            assert gr.frame_index == wr.frame_index
            assert gr.new_reference == wr.new_reference
            assert gr.sparse_stats == wr.sparse_stats
            assert gr.reference_stats == wr.reference_stats
            assert gr.overlap == wr.overlap
            assert gr.warp_points == wr.warp_points
            assert np.array_equal(gr.frame.image, wr.frame.image)
            assert np.array_equal(gr.frame.depth, wr.frame.depth,
                                  equal_nan=True)
            assert np.array_equal(gr.frame.hit, wr.frame.hit)
            assert np.array_equal(gr.classification.disoccluded,
                                  wr.classification.disoccluded)


class TestLockstepCopies:
    def test_each_distinct_bundle_renders_once_per_round(
            self, render_calls, monkeypatch):
        coalesced = _run(_cache())
        shared = [list(call) for call in render_calls]
        render_calls.clear()
        with monkeypatch.context() as patch:
            _never_coalesce(patch)
            every = _run(_cache())
        # The calls align one to one (same rounds, same groups); each
        # coalesced call is the other's distinct bundles, first seen first.
        assert len(shared) == len(render_calls) == every.batch.nerf_calls
        assert shared == [_distinct(call) for call in render_calls]
        assert sum(map(len, shared)) < sum(map(len, render_calls))
        assert coalesced.batch == every.batch
        _assert_same_sessions(coalesced, every)

    def test_equals_solo_and_uncached_runs(self):
        coalesced = _run(_cache())
        uncached = _run(None)
        _assert_same_sessions(coalesced, uncached)
        solo = build_mixed_sessions(MIX, FAST, frames=FRAMES)
        for session in solo:
            MultiSessionEngine([session]).run()
        _assert_same_sessions(coalesced, SimpleNamespace(sessions=solo))

    def test_uncached_run_renders_every_request(self, render_calls):
        result = _run(None)
        assert (sum(map(len, render_calls)) == result.batch.requests)

    def test_shared_outputs_are_read_only(self, monkeypatch):
        delivered = []
        deliver = RenderSession.deliver

        def spy(session, output):
            delivered.append((session.pending_request.kind, output))
            return deliver(session, output)
        monkeypatch.setattr(RenderSession, "deliver", spy)
        _run(_cache())
        receivers: dict = {}
        for kind, output in delivered:
            if kind == "sparse":
                receivers.setdefault(id(output), []).append(output)
        shared = [outs[0] for outs in receivers.values() if len(outs) > 1]
        assert shared
        for output in shared:
            for array in (output.rgb, output.depth_t, output.opacity):
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                output.rgb[0] = 0.0


class TestParallel:
    def test_each_distinct_bundle_is_shipped_once(self, monkeypatch):
        shipped = []
        submit = WorkerPool.submit

        def spy(self, groups):
            shipped.append([_hashes(bundles) for _, bundles in groups])
            return submit(self, groups)
        monkeypatch.setattr(WorkerPool, "submit", spy)
        pooled = _run(_cache(), backend="parallel", engine_workers=2)
        serial = _run(_cache())
        assert shipped
        for round_groups in shipped:
            for hashes in round_groups:
                assert hashes == _distinct(hashes)
        assert pooled.batch == serial.batch
        _assert_same_sessions(pooled, serial)


class TestScheduling:
    @staticmethod
    def _served(monkeypatch):
        rounds = []
        select = MultiSessionEngine._select

        def spy(self, ordered):
            served = select(self, ordered)
            rounds.append([s.session_id for s in served])
            return served
        monkeypatch.setattr(MultiSessionEngine, "_select", spy)
        return rounds

    @pytest.mark.parametrize("governed", [False, True],
                             ids=["plain", "governed"])
    def test_budget_stats_and_served_sets_are_unchanged(
            self, monkeypatch, governed):
        def run():
            governor = (EngineGovernor(FAST, mode="adaptive") if governed
                        else None)
            return _run(_cache(), ray_budget=3000, governor=governor)

        with monkeypatch.context() as patch:
            served = self._served(patch)
            coalesced = run()
        with monkeypatch.context() as patch:
            _never_coalesce(patch)
            served_every = self._served(patch)
            every = run()
        assert served == served_every
        assert coalesced.batch == every.batch
        _assert_same_sessions(coalesced, every)


# -- scripted sessions: exact control over the rays --------------------------

class _Sampler:
    num_samples = 8


class _Renderer:
    """A fresh, writeable output per bundle; counts bundles."""

    def __init__(self):
        self.sampler = _Sampler()
        self.field = "field"
        self.chunk_size = 1024
        self.bundles = 0

    def render_ray_batch(self, bundles):
        self.bundles += len(bundles)
        return [SimpleNamespace(rgb=o.sum(axis=1), depth_t=o[:, 0].copy(),
                                opacity=o[:, 1].copy())
                for o, _ in bundles]


class _Pipeline:
    def __init__(self, renderer, fill):
        self.renderer = renderer
        self.fill = fill

    def step(self, poses, start=0):
        for i in range(2):
            rays = np.full((4, 3), self.fill + i)  # new rays per frame
            yield RayRequest(kind="sparse", frame_index=i, origins=rays,
                             directions=rays)


def _scripted(sid, renderer, fill, render_key=None):
    return RenderSession(sid, _Pipeline(renderer, fill), poses=[None, None],
                         cache_key="content", render_key=render_key)


class TestScripted:
    def test_different_rays_do_not_share(self):
        renderer = _Renderer()
        MultiSessionEngine([_scripted("a", renderer, 0.0),
                            _scripted("b", renderer, 1.0)],
                           reference_cache=_cache()).run()
        assert renderer.bundles == 4

    def test_identical_rays_share_only_with_a_reference_cache(self):
        for cache, bundles in ((_cache(), 2), (None, 4)):
            renderer = _Renderer()
            MultiSessionEngine([_scripted("a", renderer, 0.5),
                                _scripted("b", renderer, 0.5)],
                               reference_cache=cache).run()
            assert renderer.bundles == bundles

    def test_a_follower_is_counted_as_coalesced_not_as_a_miss(self):
        renderer = _Renderer()
        memo = SharedLRUCache(name="memo")
        metrics = MetricsRegistry()
        with activate(Observation(metrics=metrics)):
            result = MultiSessionEngine(
                [_scripted(sid, renderer, 0.5, render_key="pixels")
                 for sid in "abc"],
                reference_cache=_cache(), render_memo=memo).run()
        assert renderer.bundles == 2
        assert metrics.counter("engine.render_memo.misses").value == 2
        assert metrics.counter("engine.coalesced_requests").value == 4
        assert "engine.render_memo.hits" not in metrics.snapshot()["counters"]
        assert memo.stats.lookups == 2 and memo.stats.insertions == 2
        assert result.batch.requests == 6 and result.batch.nerf_calls == 2
