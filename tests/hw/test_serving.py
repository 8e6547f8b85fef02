"""Tests for the aggregate multi-session serving model."""

import math

import pytest

from repro.core.sparw.pipeline import SparwSequenceResult, TargetFrameRecord
from repro.hw.serving import aggregate_serving, session_frame_costs
from repro.hw.soc import SoCModel
from repro.nerf.renderer import RenderStats


def make_result(num_frames, window, sparse_rays=200, sparse_samples=2000):
    """A synthetic SPARW sequence: reference every `window` frames."""
    result = SparwSequenceResult()
    for i in range(num_frames):
        is_ref = i % window == 0
        result.records.append(TargetFrameRecord(
            frame_index=i, frame=None, classification=None, overlap=0.95,
            new_reference=is_ref,
            sparse_stats=RenderStats(
                num_rays=sparse_rays, num_samples=sparse_samples,
                mlp_macs=sparse_samples * 100,
                gather_vertex_accesses=sparse_samples * 8,
                gather_bytes=sparse_samples * 8 * 32),
            reference_stats=RenderStats(
                num_rays=2304, num_samples=40000, mlp_macs=40000 * 100,
                gather_vertex_accesses=40000 * 8,
                gather_bytes=40000 * 8 * 32) if is_ref else None,
            warp_points=2304, mean_warp_angle_deg=0.5))
    return result


@pytest.fixture(scope="module")
def soc():
    return SoCModel(16)


class TestPriceSessionFrames:
    def test_one_time_per_frame(self, soc):
        result = make_result(6, window=3)
        times = [cost.time_s for cost in session_frame_costs(result, soc, "cicero")]
        assert len(times) == 6
        assert all(t > 0 for t in times)

    def test_reference_frames_cost_more(self, soc):
        result = make_result(6, window=3)
        times = [cost.time_s for cost in session_frame_costs(result, soc, "cicero")]
        # Window boundaries (0 and 3) pay the full-frame reference render.
        assert times[0] > 2 * times[1]
        assert times[3] > 2 * times[4]


class TestAggregateServing:
    def test_conservation(self, soc):
        results = {"a": make_result(4, 2), "b": make_result(4, 2)}
        report = aggregate_serving(results, soc=soc)
        assert report.num_sessions == 2
        assert report.total_frames == 8
        busy = sum(s.busy_s for s in report.per_session)
        # The SoC idles between 30 fps requests ...
        assert report.makespan_s >= busy
        assert report.aggregate_fps == pytest.approx(8 / report.makespan_s)
        # ... and never when every frame is requested at t = 0.
        eager = aggregate_serving(results, soc=soc,
                                  fps_targets={"a": math.inf, "b": math.inf})
        assert eager.makespan_s == pytest.approx(busy)

    def test_latency_includes_queueing(self, soc):
        solo = aggregate_serving({"a": make_result(4, 2)}, soc=soc)
        shared = aggregate_serving({"a": make_result(4, 2),
                                    "b": make_result(4, 2),
                                    "c": make_result(4, 2)}, soc=soc)
        # With 3 sessions on one SoC the tail waits behind two others.
        assert shared.p95_latency_s > solo.p95_latency_s
        assert shared.worst_latency_s >= shared.p95_latency_s
        assert shared.p95_latency_s >= shared.mean_latency_s

    def test_sjf_no_worse_mean_latency(self, soc):
        results = {"heavy": make_result(4, 1),  # reference every frame
                   "light": make_result(4, 4, sparse_rays=20,
                                        sparse_samples=200)}
        arrival = aggregate_serving(results, soc=soc, order="arrival")
        sjf = aggregate_serving(results, soc=soc, order="sjf")
        assert sjf.mean_latency_s <= arrival.mean_latency_s
        # Throughput is order-independent: same work either way.
        assert sjf.aggregate_fps == pytest.approx(arrival.aggregate_fps)

    def test_references_reported(self, soc):
        report = aggregate_serving({"a": make_result(6, 3)}, soc=soc)
        assert report.per_session[0].references == 2

    def test_unequal_session_lengths(self, soc):
        report = aggregate_serving({"long": make_result(5, 5),
                                    "short": make_result(2, 2)}, soc=soc)
        assert report.total_frames == 7
        frames = {s.session_id: s.frames for s in report.per_session}
        assert frames == {"long": 5, "short": 2}

    def test_unknown_order_rejected(self, soc):
        with pytest.raises(ValueError):
            aggregate_serving({}, soc=soc, order="lifo")

    def test_empty(self, soc):
        report = aggregate_serving({}, soc=soc)
        assert report.total_frames == 0
        assert report.aggregate_fps == 0.0
        assert report.cache is None

    def test_per_session_variants(self, soc):
        results = {"a": make_result(4, 2), "b": make_result(4, 2)}
        uniform = aggregate_serving(results, soc=soc, variant="baseline")
        mixed = aggregate_serving(results, soc=soc, variant="baseline",
                                  variants={"b": "cicero"})
        per = {s.session_id: s for s in mixed.per_session}
        base = {s.session_id: s for s in uniform.per_session}
        # Session "a" falls back to the default variant; "b" is priced
        # under the (faster) cicero variant.
        assert per["a"].busy_s == pytest.approx(base["a"].busy_s)
        assert per["b"].busy_s < base["b"].busy_s

    def test_cache_stats_attached(self, soc):
        cache_stats = {"references": {"hits": 3, "misses": 1}}
        report = aggregate_serving({"a": make_result(2, 2)}, soc=soc,
                                   cache_stats=cache_stats)
        assert report.cache == cache_stats
