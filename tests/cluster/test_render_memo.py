"""The cluster simulator's per-run render memo: parity, dedupe, safety.

``ClusterSimulator.run`` shares one bounded render memo across every
worker's engine and session for the duration of the run.  It answers
NeRF requests, SPARW target frames and trajectories; memoized work is
skipped, so every report number must equal a run whose memo lookups all
miss (the ``forced_memo_miss`` fixture monkeypatches the memo's class;
there is no flag), each distinct ``(render_key, rays)`` request renders
and each distinct target warps once per run — across catalog variants
and pricing-only copies of a spec too — and nothing outlives the run.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, simulate_cluster
from repro.cluster import simulator as simulator_module
from repro.cluster.arrivals import make_arrivals
from repro.core.sparw import pipeline
from repro.core.sparw.pipeline import RayRequest, SparwRenderer
from repro.engine import MultiSessionEngine, RenderSession
from repro.harness.configs import FAST
from repro.nerf.renderer import NeRFRenderer
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observation, activate
from repro.workloads import (SharedLRUCache, WorkloadSpec, get_workload,
                             rays_hash)

# The base and sharded cells of the e2e cluster_sim pass
# (benchmarks/e2e/e2e_batch.py) at seed 3.
E2E_MIX = "vr-lego:4,dolly-chair:2,vr-headshake:1"
E2E_BASE = dict(placement="least_loaded", workers=4, rate_hz=4.0,
                duration_s=10.0, frames=8, seed=3)
E2E_SHARDED = dict(E2E_BASE, placement="shard_affinity", catalog=40,
                   zipf=1.1, replication=2)

MIX = "vr-lego:2,dolly-chair"
BASE = dict(arrivals="poisson", rate_hz=4.0, duration_s=2.0, seed=5,
            workers=2, queue_limit=4, frames=4)
CELLS = {
    "base": BASE,
    "sharded": dict(BASE, placement="shard_affinity", catalog=6, zipf=1.1,
                    replication=2),
    # A tight queue makes the adaptive governor degrade, shed and
    # recover residents.
    "governed": dict(BASE, rate_hz=8.0, seed=7, queue_limit=2, frames=8,
                     governor="adaptive"),
}


def _report_view(report):
    return {"summary": report.summary(), "per_worker": report.per_worker,
            "governor_events": report.governor_events,
            "distribution": report.distribution}


@pytest.fixture(scope="module")
def memo_reports():
    return {name: simulate_cluster(MIX, FAST, **cell)
            for name, cell in CELLS.items()}


class TestParity:
    @pytest.mark.parametrize("name", list(CELLS))
    def test_report_equals_forced_miss_run(self, name, memo_reports,
                                           forced_memo_miss):
        memo = memo_reports[name]
        missed = simulate_cluster(MIX, FAST, **CELLS[name])
        assert _report_view(memo) == _report_view(missed)
        assert dataclasses.asdict(memo) == dataclasses.asdict(missed)

    def test_governed_cell_retunes(self, memo_reports):
        governed = memo_reports["governed"]
        assert governed.tier_transitions > 0
        assert any(e["action"] in ("degrade", "recover", "shed_degrade")
                   for e in governed.governor_events)

    def test_sharded_cell_reports_distribution(self, memo_reports):
        assert memo_reports["sharded"].distribution["catalog"] == 6


class _RenderSpy:
    """Records what the run delivers and what it actually evaluates."""

    def __init__(self, monkeypatch):
        self.delivered: set = set()
        self.rendered: list = []
        self.workloads: set = set()
        spy = self
        deliver = RenderSession.deliver
        render_ray_batch = NeRFRenderer.render_ray_batch

        def spy_deliver(session, output):
            request = session.pending_request
            spy.delivered.add((session.render_key,
                               rays_hash(request.origins,
                                         request.directions)))
            spy.workloads.add(session.workload.name)
            return deliver(session, output)

        def spy_render(renderer, bundles):
            spy.rendered.extend(rays_hash(o, d) for o, d in bundles)
            return render_ray_batch(renderer, bundles)

        monkeypatch.setattr(RenderSession, "deliver", spy_deliver)
        monkeypatch.setattr(NeRFRenderer, "render_ray_batch", spy_render)

    def reset(self):
        self.delivered.clear()
        self.rendered.clear()
        self.workloads.clear()

    def assert_each_distinct_request_rendered_once(self):
        assert self.rendered
        distinct = collections.Counter(h for _, h in self.delivered)
        assert collections.Counter(self.rendered) == distinct


class TestDedupe:
    @pytest.mark.parametrize("name", list(CELLS))
    def test_each_distinct_request_renders_once(self, name, monkeypatch):
        spy = _RenderSpy(monkeypatch)
        report = simulate_cluster(MIX, FAST, **CELLS[name])
        spy.assert_each_distinct_request_rendered_once()
        # Repeats exist, so the memo actually saved evaluations.
        assert report.admitted > len({key for key, _ in spy.delivered})

    def test_e2e_sharded_cell_renders_each_distinct_bundle_once(
            self, monkeypatch):
        # 40 catalog variants draw 3 pose sequences: keyed by cache_key
        # the memo evaluated 127 bundles (82 807 rays) here, by
        # render_key the same 24 bundles as the base cell.
        spy = _RenderSpy(monkeypatch)
        metrics = MetricsRegistry()
        with activate(Observation(metrics=metrics)):
            report = simulate_cluster(E2E_MIX, FAST, **E2E_SHARDED)
        spy.assert_each_distinct_request_rendered_once()
        assert report.total_frames == 296
        assert len(spy.rendered) == len(spy.delivered) == 24
        # The engine's NeRF-memo counter reads the same without a spy.
        assert metrics.counter("engine.render_memo.misses").value == 24

    def test_pricing_copy_shares_every_render(self, monkeypatch,
                                              request):
        # A copy that differs only in what prices or governs a frame
        # draws the same pixels, so it evaluates no bundle of its own.
        # Its cache_key still differs: the modelled reference caches and
        # the shard tier keep treating it as distinct content.
        spec = get_workload("vr-lego")
        gpu = dataclasses.replace(spec, name="vr-lego-gpu", variant="gpu",
                                  slo_fps=12.0)
        assert gpu.render_key(FAST) == spec.render_key(FAST)
        assert gpu.cache_key(FAST) != spec.cache_key(FAST)
        mix = [(spec, 1), (gpu, 1)]
        spy = _RenderSpy(monkeypatch)
        report = simulate_cluster(mix, FAST, **BASE)
        spy.assert_each_distinct_request_rendered_once()
        assert set(collections.Counter(spy.rendered).values()) == {1}
        assert spy.workloads == {"vr-lego", "vr-lego-gpu"}
        request.getfixturevalue("forced_memo_miss")
        missed = simulate_cluster(mix, FAST, **BASE)
        assert dataclasses.asdict(report) == dataclasses.asdict(missed)

    def test_nothing_outlives_a_run(self, monkeypatch):
        spy = _RenderSpy(monkeypatch)
        simulate_cluster(MIX, FAST, **BASE)
        first = list(spy.rendered)
        spy.reset()
        simulate_cluster(MIX, FAST, **BASE)
        assert sorted(spy.rendered) == sorted(first)
        spy.assert_each_distinct_request_rendered_once()

    def test_workers_drop_the_memo_after_the_run(self):
        simulator = ClusterSimulator(FAST, workers=2, frames=2, seed=5)
        simulator.run(make_arrivals("poisson", MIX, rate_hz=2.0,
                                    duration_s=1.0, seed=5))
        assert simulator._render_memo is None
        assert all(w.render_memo is None for w in simulator.workers)


# -- safety: what the memo must never answer ---------------------------------


class _Sampler:
    num_samples = 8


class _Renderer:
    """Echoes a fresh, writeable output per bundle and counts bundles."""

    def __init__(self):
        self.sampler = _Sampler()
        self.field = "field"
        self.chunk_size = 1024
        self.bundles = 0

    def render_ray_batch(self, bundles):
        self.bundles += len(bundles)
        return [np.zeros(o.shape[0]) for o, _ in bundles]


class _Pipeline:
    def __init__(self, renderer, frames):
        self.renderer = renderer
        self.frames = frames

    def step(self, poses):
        for i in range(self.frames):
            rays = np.zeros((4, 3))
            yield RayRequest(kind="sparse", frame_index=i, origins=rays,
                             directions=rays)


def _scripted(sid, renderer, render_key):
    return RenderSession(sid, _Pipeline(renderer, 2), poses=[None, None],
                         cache_key="content", render_key=render_key)


class TestSafety:
    def test_sessions_without_render_key_are_never_memoized(self):
        # A cache_key alone (reference-cache identity) does not qualify.
        memo = SharedLRUCache(name="memo")
        renderer = _Renderer()
        MultiSessionEngine([_scripted("a", renderer, None),
                            _scripted("b", renderer, None)],
                           render_memo=memo).run()
        assert memo.stats.lookups == 0 and len(memo) == 0
        assert renderer.bundles == 4

    @staticmethod
    def _frames(sessions):
        return [[(r.frame.image, r.frame.depth) for r in s.result.records]
                for s in sessions]

    def test_shared_renderer_different_trajectories_do_not_share(self):
        spec = get_workload("vr-lego").with_overrides(frames=6)
        poses = spec.build_trajectory(FAST).poses

        def sessions():
            return [spec.build_session("head", FAST, level=0,
                                       poses=poses[:3]),
                    spec.build_session("tail", FAST, level=0,
                                       poses=poses[3:])]

        memoized = sessions()
        assert memoized[0].renderer is memoized[1].renderer
        assert memoized[0].render_key == memoized[1].render_key
        memo = SharedLRUCache(name="memo")
        # One engine per session, as on a cluster worker, so the second
        # session's lookups see everything the first one stored.
        for session in memoized:
            MultiSessionEngine([session], render_memo=memo).run()
        plain = sessions()
        MultiSessionEngine(plain).run()
        assert memo.stats.hits == 0 and memo.stats.misses > 0
        for got, want in zip(self._frames(memoized), self._frames(plain)):
            assert len(got) == len(want) == 3
            for (image, depth), (image0, depth0) in zip(got, want):
                np.testing.assert_array_equal(image, image0)
                np.testing.assert_array_equal(depth, depth0)

    def test_repeat_session_is_answered_and_outputs_are_read_only(
            self, monkeypatch):
        spec = get_workload("vr-lego").with_overrides(frames=3)
        memo = SharedLRUCache(name="memo")
        first = spec.build_session("first", FAST)
        MultiSessionEngine([first], render_memo=memo).run()
        stored = memo.stats.insertions
        assert stored > 0 and memo.stats.hits == 0

        delivered = []
        deliver = RenderSession.deliver

        def spy(session, output):
            delivered.append(output)
            return deliver(session, output)

        monkeypatch.setattr(RenderSession, "deliver", spy)
        repeat = spec.build_session("repeat", FAST)
        MultiSessionEngine([repeat], render_memo=memo).run()
        assert memo.stats.hits == stored
        assert memo.stats.insertions == stored
        got, want = self._frames([repeat])[0], self._frames([first])[0]
        assert len(got) == len(want) == 3
        for (image, depth), (image0, depth0) in zip(got, want):
            np.testing.assert_array_equal(image, image0)
            np.testing.assert_array_equal(depth, depth0)
        assert len(delivered) == stored
        for output in delivered:
            for array in (output.rgb, output.depth_t, output.opacity):
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                output.rgb[0] = 0.0


class TestRetune:
    """A retune re-keys the session's NeRF requests when it lands."""

    @staticmethod
    def _retuned(sid, spec, camera):
        # The switch is staged while frame 0's level-0 request is pending,
        # so it lands at frame 1 with a fresh reference.  Keeping the
        # level-0 camera keeps that reference's rays equal to a level-0
        # reference's at the same pose: only the key tells them apart.
        session = spec.build_session(sid, FAST)
        session.retune(spec.build_renderer(FAST, 1),
                       spec.build_sparw(FAST, 1).camera
                       if camera == "switched" else None,
                       level=1, cache_key=spec.cache_key(FAST, 1),
                       render_key=spec.render_key(FAST, 1))
        return session

    @pytest.mark.parametrize("camera", ["switched", "kept"])
    def test_retuned_session_matches_a_memo_less_run(self, camera):
        spec = get_workload("vr-lego").with_overrides(frames=3)
        memo = SharedLRUCache(name="memo")
        # A level-0 twin whose retune to its own level forces the same
        # fresh reference at frame 1 fills the memo with level-0 entries
        # for every request the retuned session will make at level 0.
        twin = spec.build_session("twin", FAST)
        twin.retune(spec.build_renderer(FAST), None, level=0,
                    cache_key=spec.cache_key(FAST),
                    render_key=spec.render_key(FAST))
        MultiSessionEngine([twin], render_memo=memo).run()
        memoized = self._retuned("memoized", spec, camera)
        assert memoized.render_key == spec.render_key(FAST)  # not landed
        MultiSessionEngine([memoized], render_memo=memo).run()
        assert memoized.render_key == spec.render_key(FAST, 1)
        assert memoized.quality_level == 1
        assert memo.stats.hits > 0  # frame 0 is still a level-0 request
        plain = self._retuned("plain", spec, camera)
        MultiSessionEngine([plain]).run()
        got, want = memoized.result.records, plain.result.records
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.frame.image, b.frame.image)
            np.testing.assert_array_equal(a.frame.depth, b.frame.depth)
            assert a.sparse_stats == b.sparse_stats
            assert a.reference_stats == b.reference_stats


# -- target frames and trajectories ------------------------------------------

class _WarpSpy:
    """Counts warps and the target-memo key each target frame looked up."""

    def __init__(self, monkeypatch):
        self.warps = 0
        self.keys = collections.Counter()
        spy = self
        warp_frame = pipeline.warp_frame
        memo_key = SparwRenderer._target_memo_key

        def spy_warp(*args):
            spy.warps += 1
            return warp_frame(*args)

        def spy_key(sparw, reference, pose):
            key = memo_key(sparw, reference, pose)
            spy.keys[key] += 1
            return key

        monkeypatch.setattr(pipeline, "warp_frame", spy_warp)
        monkeypatch.setattr(SparwRenderer, "_target_memo_key", spy_key)


class TestTargetDedupe:
    def test_e2e_base_cell_warps_each_distinct_target_once(
            self, monkeypatch):
        spy = _WarpSpy(monkeypatch)
        report = simulate_cluster(E2E_MIX, FAST, **E2E_BASE)
        assert None not in spy.keys
        targets = sum(spy.keys.values())
        assert targets == report.total_frames == 296
        assert spy.warps == len(spy.keys) == 22

    @pytest.mark.parametrize("name", ["base", "sharded", "governed"])
    def test_one_warp_per_distinct_key(self, name, monkeypatch):
        spy = _WarpSpy(monkeypatch)
        simulate_cluster(MIX, FAST, **CELLS[name])
        assert None not in spy.keys
        assert spy.warps == len(spy.keys) < sum(spy.keys.values())

    @pytest.mark.parametrize("name", ["base", "governed"])
    def test_one_trajectory_build_per_spec(self, name, monkeypatch):
        builds = collections.Counter()
        build_trajectory = WorkloadSpec.build_trajectory

        def spy(spec, config):
            builds[spec] += 1
            return build_trajectory(spec, config)

        monkeypatch.setattr(WorkloadSpec, "build_trajectory", spy)
        report = simulate_cluster(MIX, FAST, **CELLS[name])
        assert set(builds.values()) == {1}
        assert report.admitted > len(builds)
        if name == "governed":
            assert report.tier_transitions > 0  # retunes reuse the poses


def _memoized_session(sid, spec, memo, namespace=None):
    """A session whose pipeline shares ``memo``, wired as a worker does."""
    session = spec.build_session(sid, FAST)
    session.sparw.share_targets(memo, namespace or spec.render_key(FAST))
    return session


class TestTargetSafety:
    @pytest.mark.parametrize("case", ["chained", "no_namespace"])
    def test_never_consults_the_memo(self, case):
        spec = get_workload("vr-lego").with_overrides(frames=3)
        if case == "chained":
            spec = dataclasses.replace(spec, policy="on_trajectory")
        memo = SharedLRUCache(name="memo")
        for sid in ("a", "b"):
            session = _memoized_session(sid, spec, memo)
            if case == "no_namespace":
                session.sparw.share_targets(memo, None)
            MultiSessionEngine([session]).run()
            assert session.result.num_frames == 3
        assert memo.stats.lookups == 0 and len(memo) == 0

    def test_landed_retune_stops_sharing(self):
        # The switch lands at frame 1: frame 0 still warps at the shared
        # namespace, later frames (another renderer and camera) never
        # consult the memo.
        spec = get_workload("vr-lego").with_overrides(frames=3)
        memo = SharedLRUCache(name="memo")
        for sid in ("a", "b"):
            session = _memoized_session(sid, spec, memo)
            session.retune(spec.build_renderer(FAST, 1),
                           spec.build_sparw(FAST, 1).camera, level=1,
                           cache_key=spec.cache_key(FAST, 1))
            MultiSessionEngine([session]).run()
            assert [r.frame.image.shape[0] for r in session.result.records] \
                == [FAST.image_size] + [FAST.image_size // 2] * 2
        assert (memo.stats.hits, memo.stats.misses, len(memo)) == (1, 1, 1)

    def test_seeded_variants_share_targets(self, monkeypatch):
        # Specs that differ only in their trajectory seed (a scene
        # catalog's variants) have one render_key, so one warp per target.
        spec = get_workload("vr-lego").with_overrides(frames=3)
        variant = spec.with_overrides(seed_offset=7)
        assert variant.cache_key(FAST) != spec.cache_key(FAST)
        spy = _WarpSpy(monkeypatch)
        memo = SharedLRUCache(name="memo")
        for sid, each in (("a", spec), ("b", variant)):
            MultiSessionEngine([_memoized_session(sid, each, memo)]).run()
        assert spy.warps == len(spy.keys) == 3
        assert sum(spy.keys.values()) == 6

    def test_memoized_targets_are_read_only_and_exact(self):
        spec = get_workload("vr-lego").with_overrides(frames=4)
        memo = SharedLRUCache(name="memo")
        sessions = [_memoized_session(sid, spec, memo)
                    for sid in ("first", "repeat")]
        for session in sessions:  # one engine per session, as on a worker
            MultiSessionEngine([session]).run()
        assert memo.stats.hits == memo.stats.insertions == 4
        plain = spec.build_session("plain", FAST)
        MultiSessionEngine([plain]).run()
        for got, want in zip(sessions[1].result.records,
                             plain.result.records):
            np.testing.assert_array_equal(got.frame.image, want.frame.image)
            np.testing.assert_array_equal(got.frame.depth, want.frame.depth)
            assert got.overlap == want.overlap
            assert got.mean_warp_angle_deg == want.mean_warp_angle_deg
            assert got.sparse_stats == want.sparse_stats
            stored = (got.frame.image, got.frame.depth, got.frame.hit,
                      got.classification.warped,
                      got.classification.disoccluded,
                      got.classification.void)
            for array in stored:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0


class TestEviction:
    @pytest.mark.parametrize("name", ["base", "governed"])
    def test_evicting_memo_reports_like_forced_miss(self, name, monkeypatch,
                                                    request):
        memos = []

        class RecordedMemo(SharedLRUCache):
            def __post_init__(self):
                super().__post_init__()
                memos.append(self)

        monkeypatch.setattr(simulator_module, "SharedLRUCache", RecordedMemo)
        monkeypatch.setattr(simulator_module, "RENDER_MEMO_ENTRIES", 8)
        small = simulate_cluster(MIX, FAST, **CELLS[name])
        (memo,) = memos
        assert memo.stats.evictions > 0 and memo.stats.hits > 0
        request.getfixturevalue("forced_memo_miss")
        missed = simulate_cluster(MIX, FAST, **CELLS[name])
        assert dataclasses.asdict(small) == dataclasses.asdict(missed)
