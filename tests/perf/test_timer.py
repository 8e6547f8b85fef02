"""Stage sections: ``<name>_s`` histograms and the no-op overhead bound."""

import time

import numpy as np

from repro.nerf.renderer import NeRFRenderer
from repro.nerf.sampling import UniformSampler
from repro.obs import MetricsRegistry, Observation, activate, section


def _observed():
    return activate(Observation(metrics=MetricsRegistry()))


def test_timer_accumulates_sections():
    with _observed() as obs:
        for _ in range(3):
            with section("work"):
                pass
    stats = obs.metrics.histogram("work_s")
    assert stats.count == 3
    assert stats.total >= 0.0
    assert stats.min_value <= stats.max_value
    assert stats.mean == stats.total / 3


def test_reentrant_section_depth_resets_between_uses():
    """Every exit observes one sample, nested same-name blocks included,
    so nothing carries over between uses; distinct names account
    independently when interleaved."""
    with _observed() as obs:
        for _ in range(2):
            with section("work"):
                with section("work"):
                    pass
        with section("outer"):
            with section("inner"):
                pass
    assert obs.metrics.histogram("work_s").count == 4
    assert obs.metrics.histogram("outer_s").count == 1
    assert obs.metrics.histogram("inner_s").count == 1


def test_module_section_routes_to_active_timer():
    with section("outside-noop"):
        pass
    with _observed() as obs:
        with section("inside"):
            pass
    assert set(obs.metrics.histograms) == {"inside_s"}


def test_activation_nests_and_restores():
    outer = Observation(metrics=MetricsRegistry())
    inner = Observation(metrics=MetricsRegistry())
    with activate(outer):
        with section("a"):
            pass
        with activate(inner):
            with section("b"):
                pass
        with section("c"):
            pass
    assert set(outer.metrics.histograms) == {"a_s", "c_s"}
    assert set(inner.metrics.histograms) == {"b_s"}


def test_render_rays_observes_each_stage_once_per_chunk(fast_renderer):
    """The annotated render path: K chunks -> K samples per stage."""
    lo, hi = (np.asarray(b, dtype=float) for b in fast_renderer.field.bounds)
    start = (lo + hi) / 2 - [0.0, 0.0, 2.0 * (hi - lo)[2]]
    rays, chunk_size, chunks = 10, 4, 3
    origins = np.tile(start, (rays, 1))
    directions = np.tile([0.0, 0.0, 1.0], (rays, 1))
    renderer = NeRFRenderer(fast_renderer.field, UniformSampler(8),
                            chunk_size=chunk_size)
    with _observed() as obs:
        out = renderer.render_rays(origins, directions)
    assert out.stats.num_samples == rays * 8  # every chunk has samples
    assert {name: h.count for name, h in obs.metrics.histograms.items()} \
        == {f"nerf.{stage}_s": chunks
            for stage in ("sample", "interpolate", "decode", "composite")}


def test_noop_overhead_bound():
    """The inactive instrumentation path must stay effectively free.

    Product hot paths call ``section()`` unconditionally, so its
    no-registry cost gates how liberally the codebase can be annotated.
    The bound is generous (2 microseconds mean per call, ~20x the
    typical cost) so a loaded CI machine cannot flake it, while still
    catching an accidental always-on slow path.
    """
    iterations = 50_000
    start = time.perf_counter_ns()
    for _ in range(iterations):
        with section("noop"):
            pass
    per_call_ns = (time.perf_counter_ns() - start) / iterations
    assert per_call_ns < 2_000, f"no-op section cost {per_call_ns:.0f} ns"
