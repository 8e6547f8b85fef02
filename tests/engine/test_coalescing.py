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

import dataclasses
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
from repro.obs.tracer import Tracer
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


class _StoreLog(SharedLRUCache):
    """A reference cache that remembers every output stored in it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stored = []

    def put(self, key, value, size_bytes: int = 0) -> int:
        self.stored.append(value)
        return super().put(key, value, size_bytes)


class TestFreezeOnShare:
    def test_every_shared_or_stored_output_is_read_only(self, monkeypatch):
        receivers: dict = {}
        deliver = RenderSession.deliver

        def spy(session, output):
            receivers.setdefault(id(output), [output, 0])[1] += 1
            return deliver(session, output)
        monkeypatch.setattr(RenderSession, "deliver", spy)
        cache = _StoreLog(name="test-references", max_entries=64)
        MultiSessionEngine(build_mixed_sessions("vr-lego:2", FAST, frames=2),
                           reference_cache=cache).run()
        shared = [output for output, count in receivers.values()
                  if count > 1]
        assert shared and cache.stored
        for output in shared + cache.stored:
            for array in (output.rgb, output.depth_t, output.opacity):
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]


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

    @pytest.mark.parametrize("governed", [False, True],
                             ids=["plain", "governed"])
    def test_cache_traffic_counters_and_trace_are_pinned(
            self, monkeypatch, governed):
        """What a round reports, pinned as the engine reported it before
        reference hits and followers joined ``_lookup``'s plan.  A
        one-entry reference cache evicts, so the order of its gets and
        puts shows in ``report()``; the trace runs on the engine's work
        clock, so its order and timestamps are exact."""
        hashed = []

        def counting(origins, directions):
            hashed.append(1)
            return rays_hash(origins, directions)
        monkeypatch.setattr(engine_module, "rays_hash", counting)
        cache = SharedLRUCache(name="test-references", max_entries=1)
        sessions = build_mixed_sessions(MIX, FAST, frames=FRAMES)
        governor = (EngineGovernor(FAST, mode="adaptive") if governed
                    else None)
        tracer, metrics = Tracer(), MetricsRegistry()
        with activate(Observation(tracer=tracer, metrics=metrics)):
            result = MultiSessionEngine(
                sessions, reference_cache=cache, ray_budget=3000,
                governor=governor).run()
        assert cache.report() == PINNED_REPORT
        assert dataclasses.asdict(result.batch) == PINNED_BATCH
        assert metrics.snapshot()["counters"] == PINNED_COUNTERS
        assert [(e["name"], e.get("ts"), e.get("args"))
                for e in tracer.to_payload()["traceEvents"]] == PINNED_TRACE
        assert len(hashed) == 9  # no bundle hashed that was not before


# Recorded from the engine that answered reference hits in a pre-pass and
# followers in their own delivery loop (the governor moves nothing in this
# short run, so both variants share them).
PINNED_REPORT = {"hits": 2, "misses": 2, "insertions": 2, "evictions": 1,
                 "hit_rate": 0.5, "entries": 1, "bytes": 92160}
PINNED_BATCH = {"rounds": 5, "requests": 14, "nerf_calls": 8,
                "total_rays": 6742, "max_batch_rays": 2304, "cache_hits": 2}
PINNED_COUNTERS = {
    "cache.test-references.evictions": 1,
    "cache.test-references.hits": 2,
    "cache.test-references.insertions": 2,
    "cache.test-references.misses": 2,
    "engine.cache_hits": 2, "engine.coalesced_requests": 6,
    "engine.nerf_calls": 8, "engine.rays": 6742, "engine.requests": 14,
    "engine.rounds": 5}
PINNED_TRACE = [
    ("process_name", None, {"name": "engine"}),
    ("thread_name", None, {"name": "rounds"}),
    ("thread_name", None, {"name": "vr-lego-00"}),
    ("cache.miss", 0.0, {"session": "vr-lego-00"}),
    ("frame.render", 0.0, {"rays": 2304, "session": "vr-lego-00"}),
    ("thread_name", None, {"name": "vr-lego-01"}),
    ("cache.hit", 2.3040000000000003, {"session": "vr-lego-01"}),
    ("thread_name", None, {"name": "vr-lego-02"}),
    ("cache.hit", 2.3040000000000003, {"session": "vr-lego-02"}),
    ("engine.round", 0.0,
     {"cache_hits": 2, "nerf_calls": 1, "rays": 2304, "requests": 1,
      "round": 0, "sessions": 3}),
    ("thread_name", None, {"name": "dolly-chair-00"}),
    ("cache.miss", 2.3040000000000003, {"session": "dolly-chair-00"}),
    ("frame.render", 2.3040000000000003,
     {"rays": 82, "session": "vr-lego-01"}),
    ("frame.render", 2.386, {"rays": 82, "session": "vr-lego-02"}),
    ("frame.render", 2.468, {"rays": 82, "session": "vr-lego-00"}),
    ("frame.render", 2.55, {"rays": 2304, "session": "dolly-chair-00"}),
    ("engine.round", 2.3040000000000003,
     {"cache_hits": 0, "nerf_calls": 2, "rays": 2550, "requests": 4,
      "round": 1, "sessions": 4}),
    ("frame.render", 4.854000000000001, {"rays": 77, "session": "vr-lego-02"}),
    ("frame.render", 4.931000000000001, {"rays": 77, "session": "vr-lego-00"}),
    ("frame.render", 5.008000000000001, {"rays": 77, "session": "vr-lego-01"}),
    ("frame.render", 5.085000000000001,
     {"rays": 158, "session": "dolly-chair-00"}),
    ("engine.round", 4.854000000000001,
     {"cache_hits": 0, "nerf_calls": 2, "rays": 389, "requests": 4, "round": 2,
      "sessions": 4}),
    ("frame.render", 5.243000000000001,
     {"rays": 415, "session": "dolly-chair-00"}),
    ("frame.render", 5.658000000000001,
     {"rays": 159, "session": "vr-lego-00"}),
    ("frame.render", 5.817000000000001,
     {"rays": 159, "session": "vr-lego-01"}),
    ("frame.render", 5.976000000000001,
     {"rays": 159, "session": "vr-lego-02"}),
    ("engine.round", 5.243000000000001,
     {"cache_hits": 0, "nerf_calls": 2, "rays": 892, "requests": 4, "round": 3,
      "sessions": 4}),
    ("frame.render", 6.135000000000002,
     {"rays": 607, "session": "dolly-chair-00"}),
    ("engine.round", 6.135000000000002,
     {"cache_hits": 0, "nerf_calls": 1, "rays": 607, "requests": 1, "round": 4,
      "sessions": 1}),
]


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


class _OneRequest:
    """Asks for one bundle of ``kind``; a reference carries its pose."""

    def __init__(self, renderer, kind):
        self.renderer = renderer
        self.kind = kind

    def step(self, poses, start=0):
        rays = np.full((4, 3), 0.5)
        yield RayRequest(kind=self.kind, frame_index=0, origins=rays,
                         directions=rays,
                         pose=np.eye(4) if self.kind == "reference" else None)


# One row per way a request is answered.  The last session of the
# measured round is the row's; the warm-up run (same caches) stores what
# a hit finds.  Columns: its accounting, bundles rendered, cache_hits,
# requests, engine.coalesced_requests, engine.render_memo.* counts.
PLAN_ROWS = {
    "reference-cache hit": (["reference"], ["reference"],
                            ("hit", 0, 1, 0, 0, {})),
    "same-round follower": ([], ["reference", "reference"],
                            ("hit", 1, 1, 1, 0, {"misses": 1})),
    "render-memo hit": (["sparse"], ["sparse"],
                        ("render", 0, 0, 1, 0, {"hits": 1})),
    "coalesced member": ([], ["sparse", "sparse"],
                         ("render", 1, 0, 2, 1, {"misses": 1})),
    "render": ([], ["sparse"], ("render", 1, 0, 1, 0, {"misses": 1})),
}


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

    def test_a_coalesced_member_is_counted_as_coalesced_not_as_a_miss(
            self):
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

    @pytest.mark.parametrize("row", PLAN_ROWS)
    def test_the_plan_answers_each_way_as_accounted(self, monkeypatch, row):
        warm, measured, want = PLAN_ROWS[row]
        renderer = _Renderer()
        caches = {"reference_cache": _cache(),
                  "render_memo": SharedLRUCache(name="memo")}

        def sessions(kinds, prefix):
            return [RenderSession(f"{prefix}{i}", _OneRequest(renderer, kind),
                                  poses=[None], cache_key="content",
                                  render_key="pixels")
                    for i, kind in enumerate(kinds)]
        if warm:
            MultiSessionEngine(sessions(warm, "warm"), **caches).run()
        renderer.bundles = 0
        answers = {}
        lookup = MultiSessionEngine._lookup

        def spy(self, served):
            plans = lookup(self, served)
            answers.update((a.session.session_id, a)
                           for plan in plans for a in plan)
            return plans
        monkeypatch.setattr(MultiSessionEngine, "_lookup", spy)
        metrics = MetricsRegistry()
        ours = sessions(measured, "s")
        with activate(Observation(metrics=metrics)):
            batch = MultiSessionEngine(ours, **caches).run().batch
        counters = metrics.snapshot()["counters"]
        memo = {name.rpartition(".")[2]: value
                for name, value in counters.items()
                if name.startswith("engine.render_memo.")}
        answer = answers[ours[-1].session_id]
        assert ("hit" if answer.hit else "render", renderer.bundles,
                batch.cache_hits, batch.requests,
                counters.get("engine.coalesced_requests", 0), memo) == want
