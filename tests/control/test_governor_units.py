"""Unit tests: quality ladder, SLO spec fields, and the governor shims."""

import dataclasses

import pytest

from instruments import level_of
from repro.cluster import ClusterSimulator
from repro.control import QualityGovernor, level_quality, quality_floor
from repro.control.governor import MIN_WEIGHT
from repro.harness.configs import FAST
from repro.workloads import QUALITY_LEVELS, WorkloadSpec, apply_slo, get_workload


class TestSpecSLOFields:
    def test_defaults(self):
        spec = WorkloadSpec.make("w")
        assert spec.effective_slo_fps == spec.fps_target
        assert spec.slo_latency_s == pytest.approx(1.0 / spec.fps_target)
        assert spec.max_quality_level == len(QUALITY_LEVELS) - 1

    def test_explicit_slo_decouples_from_fps(self):
        spec = WorkloadSpec.make("w", fps_target=30.0, slo_fps=24.0)
        assert spec.effective_slo_fps == 24.0

    def test_min_tier_validated(self):
        with pytest.raises(ValueError, match="min_quality_tier"):
            WorkloadSpec.make("w", min_quality_tier="potato")
        assert WorkloadSpec.make(
            "w", min_quality_tier="full").max_quality_level == 0

    def test_slo_validated(self):
        with pytest.raises(ValueError, match="slo_fps"):
            WorkloadSpec.make("w", slo_fps=0.0)

    def test_apply_slo_overrides_whole_mix(self):
        mix = apply_slo("vr-lego:2,dolly-chair", 12.0)
        assert all(spec.slo_fps == 12.0 for spec, _ in mix)
        assert [count for _, count in mix] == [2, 1]

    def test_apply_slo_none_keeps_spec_slo(self):
        mix = apply_slo("dolly-chair", None)
        assert mix[0][0].slo_fps == 24.0  # the registry's own value


class TestQualityLadder:
    def test_strictly_ordered_at_fast_scale(self):
        spec = get_workload("vr-lego")
        configs = [spec.resolve_config(FAST, level) for level in range(3)]
        sizes = [c.image_size for c in configs]
        depths = [c.samples_per_ray for c in configs]
        assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == 3
        assert depths == sorted(depths, reverse=True)

    def test_level_zero_is_native(self):
        spec = get_workload("vr-lego")
        assert spec.resolve_config(FAST, 0) == spec.resolve_config(FAST)

    def test_field_params_untouched(self):
        # The ladder only touches imaging parameters, which is what makes
        # tier switches re-resolve against the same baked field.
        spec = get_workload("vr-lego")
        base, degraded = (spec.resolve_config(FAST, lvl) for lvl in (0, 2))
        assert degraded.grid_resolution == base.grid_resolution
        assert degraded.feature_dim == base.feature_dim

    def test_out_of_range_level(self):
        with pytest.raises(ValueError, match="quality level"):
            get_workload("vr-lego").resolve_config(FAST, 3)

    def test_levels_get_distinct_cache_keys(self):
        spec = get_workload("vr-lego")
        keys = {spec.cache_key(FAST, lvl) for lvl in range(3)}
        assert len(keys) == 3

    def test_level_zero_key_ignores_how_the_session_was_built(self):
        # preview-ship has its own tier: a level-0 tail re-render (a
        # cluster retune) or a recovery to level 0 must share references
        # with sessions built natively.
        spec = get_workload("preview-ship")
        native = spec.build_session("a", FAST)
        tail = spec.build_session("b", FAST, level=0, start=1)
        assert tail.cache_key == native.cache_key == spec.cache_key(FAST, 0)
        degraded = spec.build_session("c", FAST, level=2)
        assert degraded.quality_level == 2
        assert degraded.cache_key == spec.cache_key(FAST, 2) \
            != native.cache_key

    def test_tier_switch_shares_baked_field(self):
        spec = get_workload("vr-lego")
        r0 = spec.build_renderer(FAST, 0)
        r2 = spec.build_renderer(FAST, 2)
        assert r0 is not r2  # different sampler depth...
        assert r0.field is r2.field  # ...same baked field: no re-bake

    def test_probe_psnr_floor(self):
        spec = get_workload("vr-lego")
        floor = quality_floor(spec, FAST)
        assert 0.0 < floor <= level_quality(spec, FAST, 0)


class TestGovernorModes:
    def test_static_pins_deepest_rung(self):
        governor = QualityGovernor("static")
        control = governor.register("s", 0.01, 2)
        assert control.level == 2
        assert governor.observe("s", 5.0) is None  # no feedback

    def test_off_mode_never_moves(self):
        governor = QualityGovernor("off")
        governor.register("s", 0.01, 2)
        for _ in range(10):
            assert governor.observe("s", 99.0) is None
        assert level_of(governor, "s") == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="governor mode"):
            QualityGovernor("turbo")

    def test_degrade_needs_consecutive_violations(self):
        governor = QualityGovernor("adaptive")  # degrades after 2
        governor.register("s", 1.0, 2)
        governor.observe("s", 2.0)
        governor.observe("s", 0.8)  # dead band resets the streak
        governor.observe("s", 2.0)
        assert level_of(governor, "s") == 0
        assert governor.observe("s", 2.0) == 1

    def test_weight_tracks_slo_pressure(self):
        governor = QualityGovernor("adaptive")
        governor.register("a", 1.0, 2)
        governor.register("b", 1.0, 2)
        for _ in range(4):
            governor.observe("a", 3.0)  # far behind
            governor.observe("b", 0.1)  # comfortable
        assert governor.weight("a") > 1.0 > governor.weight("b")
        assert governor.weight("b") >= MIN_WEIGHT
        assert governor.weight("missing") == 1.0


def governed_simulator(mode, queue_limit):
    """A governed simulator; its policy methods are what these tests call."""
    return ClusterSimulator(FAST, workers=1, queue_limit=queue_limit,
                            governor=mode)


class TestClusterGovernorPolicy:
    class Stub:
        def __init__(self, worker_id, load):
            self.worker_id, self.load = worker_id, load

    def test_admission_level_scales_with_pressure(self):
        simulator = governed_simulator("adaptive", 4)
        spec = get_workload("vr-lego")  # max level 2
        levels = [simulator.admission_level(spec, self.Stub("w", load))
                  for load in range(5)]
        assert levels[0] == 0
        assert levels == sorted(levels)
        assert levels[-1] == spec.max_quality_level

    def test_admission_respects_min_tier(self):
        simulator = governed_simulator("adaptive", 2)
        pinned = dataclasses.replace(get_workload("vr-lego"),
                                     min_quality_tier="full")
        assert simulator.admission_level(pinned, self.Stub("w", 2)) == 0

    def test_static_pins_admission(self):
        simulator = governed_simulator("static", 4)
        spec = get_workload("vr-lego")
        assert simulator.admission_level(spec, self.Stub("w", 0)) \
            == spec.max_quality_level

    def test_overflow_target_bounded(self):
        simulator = governed_simulator("adaptive", 2)
        full = [self.Stub("w00", 2), self.Stub("w01", 2)]
        target = simulator.overflow_target(full)
        assert target.worker_id == "w00"  # least-loaded tie by id
        saturated = [self.Stub("w00", 3), self.Stub("w01", 3)]
        assert simulator.overflow_target(saturated) is None
        assert simulator.overflow_admissions == 1  # only the granted one
