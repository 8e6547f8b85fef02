"""Activation backbone: routing, nesting, and the disabled-path cost."""

import time

from repro.obs import (Observation, Tracer, MetricsRegistry, activate,
                       current_metrics, current_tracer,
                       metric_inc, metric_observe, metric_set, section)


class TestActivation:
    def test_inactive_by_default(self):
        assert current_tracer() is None
        assert current_metrics() is None

    def test_activate_exposes_and_restores(self):
        obs = Observation(tracer=Tracer(), metrics=MetricsRegistry())
        with activate(obs) as active:
            assert active is obs
            assert current_tracer() is obs.tracer
            assert current_metrics() is obs.metrics
        assert current_tracer() is None and current_metrics() is None

    def test_nested_activation_shadows_then_restores(self):
        outer = Observation(metrics=MetricsRegistry())
        inner = Observation(metrics=MetricsRegistry())
        with activate(outer):
            with activate(inner):
                metric_inc("n")
            metric_inc("n")
        assert outer.metrics.counter("n").value == 1
        assert inner.metrics.counter("n").value == 1

    def test_restores_on_exception(self):
        try:
            with activate(Observation(metrics=MetricsRegistry())):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_metrics() is None


class TestGuardedHelpers:
    def test_noops_without_observation(self):
        metric_inc("a")
        metric_observe("b", 1.0)
        metric_set("c", 1.0)
        with section("d"):
            pass  # nothing raised, nothing recorded anywhere

    def test_noops_with_partial_observation(self):
        obs = Observation(tracer=Tracer())  # no metrics
        with activate(obs):
            metric_inc("a")
            with section("d"):
                pass
        assert len(obs.tracer) == 0

    def test_record_when_active(self):
        obs = Observation(metrics=MetricsRegistry())
        with activate(obs):
            metric_inc("hits", 3)
            metric_observe("lat", 0.25)
            metric_set("fleet", 2)
            with section("step"):
                pass
        assert obs.metrics.counter("hits").value == 3
        assert obs.metrics.histogram("lat").count == 1
        assert obs.metrics.gauge("fleet").value == 2.0
        assert obs.metrics.histogram("step_s").count == 1


def test_disabled_helpers_overhead_bound():
    """With no observation active, the guarded helpers must stay
    effectively free — product hot paths (engine round loop, cache
    get/put, pool dispatch) call them unconditionally.  Same generous
    bound and rationale as tests/perf/test_timer.py's
    test_noop_overhead_bound: ~20x the typical cost so loaded CI
    machines cannot flake it, while still catching an accidental
    always-on slow path.
    """
    iterations = 50_000
    start = time.perf_counter_ns()
    for _ in range(iterations):
        metric_inc("noop")
        metric_observe("noop", 1.0)
        if current_tracer() is not None:  # the product-code guard idiom
            raise AssertionError("tracer unexpectedly active")
    per_iter_ns = (time.perf_counter_ns() - start) / iterations
    assert per_iter_ns < 2_000, f"disabled obs cost {per_iter_ns:.0f} ns"
