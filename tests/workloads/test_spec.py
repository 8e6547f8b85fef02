"""Tests for WorkloadSpec, the named registry, and mix parsing."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.configs import ALGORITHMS, DEFAULT, FAST, make_camera
from repro.harness.figures import figure_workload
from repro.hw import VARIANTS
from repro.scenes import (SYNTHETIC_SCENES, TRAJECTORY_KINDS, get_scene,
                          orbit_trajectory)
from repro.workloads import (
    QUALITY_LEVELS,
    TIERS,
    WORKLOADS,
    WorkloadSpec,
    build_mixed_sessions,
    get_workload,
    list_workloads,
    parse_mix,
    register_workload,
)


class TestSpec:
    def test_make_moves_extra_kwargs_to_trajectory_params(self):
        spec = WorkloadSpec.make("w", trajectory="orbit", window=4,
                                 degrees_per_frame=2.0, start_angle_deg=90.0)
        assert spec.window == 4
        assert spec.trajectory_params == (
            ("degrees_per_frame", 2.0), ("start_angle_deg", 90.0))

    def test_unknown_trajectory_rejected(self):
        with pytest.raises(ValueError, match="unknown trajectory"):
            WorkloadSpec(name="w", trajectory="spiral")

    def test_unknown_trajectory_param_rejected_at_construction(self):
        # A generator-param typo (or a misspelled spec field routed into
        # trajectory_params by make()) fails immediately, not at build.
        with pytest.raises(ValueError, match="does not accept"):
            WorkloadSpec.make("w", trajectory="orbit", radiu=3.0)
        with pytest.raises(ValueError, match="does not accept"):
            WorkloadSpec.make("w", algoritm="tensorf")
        with pytest.raises(ValueError, match="does not accept"):
            WorkloadSpec.make("w", trajectory="dolly",
                              degrees_per_frame=5.0)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            WorkloadSpec(name="w", tier="ultra")

    def test_hash_ignores_display_name(self):
        a = WorkloadSpec(name="a", scene="lego")
        b = WorkloadSpec(name="b", scene="lego")
        assert a.spec_hash() == b.spec_hash()

    def test_hash_sensitive_to_content(self):
        base = WorkloadSpec(name="w")
        for change in ({"scene": "chair"}, {"algorithm": "tensorf"},
                       {"trajectory": "dolly"}, {"window": 3},
                       {"phi": 4.0}, {"seed": 1}, {"tier": "preview"},
                       {"trajectory_params": (("start_angle_deg", 10.0),)}):
            assert dataclasses.replace(base, **change).spec_hash() \
                != base.spec_hash()

    def test_cache_key_includes_config_scale(self):
        spec = WorkloadSpec(name="w")
        assert spec.cache_key(FAST) != spec.cache_key(DEFAULT)
        assert spec.cache_key(FAST) == spec.cache_key(FAST)

    @pytest.mark.parametrize("config", [FAST, DEFAULT], ids=["fast",
                                                            "default"])
    def test_memoized_cache_key_matches_the_formula(self, config):
        # cache_key is memoized per (spec, config, level); it must give
        # the string the unmemoized formula gives, on every registry spec.
        for spec in WORKLOADS.values():
            for level in range(3):
                resolved = spec.resolve_config(config, level)
                config_hash = hashlib.sha1(repr(dataclasses.astuple(
                    resolved)).encode()).hexdigest()[:16]
                want = f"{spec.spec_hash()}/{config_hash}"
                assert spec.cache_key(config, level) == want
                assert spec.cache_key(config, level) == want  # cached

    def test_render_key_ignores_fields_that_only_pick_poses(self):
        base = WorkloadSpec(name="w")
        for change in ({"name": "v"}, {"trajectory": "dolly"},
                       {"trajectory_params": (("start_angle_deg", 10.0),)},
                       {"frames": 3}, {"window": 3}, {"seed": 1},
                       {"policy": "on_trajectory"}, {"variant": "gpu"},
                       {"fps_target": 60.0}, {"slo_fps": 10.0},
                       {"min_quality_tier": "full"}):
            assert dataclasses.replace(base, **change).render_key(FAST) \
                == base.render_key(FAST)
        for change in ({"scene": "chair"}, {"algorithm": "tensorf"},
                       {"phi": 4.0}, {"tier": "preview"}):
            assert dataclasses.replace(base, **change).render_key(FAST) \
                != base.render_key(FAST)
        assert base.render_key(FAST, 1) != base.render_key(FAST)
        assert base.render_key(DEFAULT) != base.render_key(FAST)

    def test_tier_resolution(self):
        assert WorkloadSpec(name="w").resolve_config(FAST) is FAST
        assert WorkloadSpec(name="w").resolve_config(DEFAULT) is DEFAULT
        preview = WorkloadSpec(name="w", tier="preview").resolve_config(FAST)
        assert preview.image_size == max(32, FAST.image_size // 2)
        assert preview.samples_per_ray <= FAST.samples_per_ray

    def test_build_trajectory_matches_figure_orbit(self):
        """Spec-built orbits are pose-identical to the GT harness orbits."""
        spec = WorkloadSpec(name="w", trajectory="orbit")
        built = spec.build_trajectory(FAST)
        expected = orbit_trajectory(FAST.num_frames,
                                    radius=FAST.orbit_radius,
                                    degrees_per_frame=FAST.degrees_per_frame)
        assert len(built) == len(expected)
        for pa, pb in zip(built.poses, expected.poses):
            np.testing.assert_array_equal(pa, pb)

    def test_build_trajectory_deterministic(self):
        spec = WorkloadSpec(name="w", trajectory="random_walk", seed=5,
                            frames=6)
        a = spec.build_trajectory(FAST)
        b = spec.build_trajectory(FAST)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa, pb)

    def test_frames_override(self):
        assert WorkloadSpec(name="w", frames=3).num_frames(FAST) == 3
        assert WorkloadSpec(name="w").num_frames(FAST) == FAST.num_frames


    def test_describe_defers_unset_sizes_to_the_config(self):
        row = WorkloadSpec(name="w").describe()
        assert row["name"] == "w"
        assert row["window"] == "config" and row["frames"] == "config"
        row = WorkloadSpec(name="w", window=4, frames=6).describe()
        assert (row["window"], row["frames"]) == (4, 6)

    def test_describe_row_of_every_builtin(self):
        for spec in list_workloads():
            row = spec.describe()
            assert row["name"] == spec.name and row["scene"] == spec.scene
            assert row["slo_fps"] == spec.effective_slo_fps


# Every spec field outside render_key: they choose which poses are drawn,
# or price or govern the frames, and never reach the renderer.
OUTSIDE_RENDER_KEY = {
    "name": st.text(min_size=1, max_size=8),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
    "variant": st.sampled_from(VARIANTS),
    "slo_fps": st.none() | st.floats(min_value=1.0, max_value=120.0),
    "fps_target": st.floats(min_value=1.0, max_value=120.0),
    "window": st.none() | st.integers(min_value=1, max_value=32),
    "policy": st.sampled_from(("extrapolated", "on_trajectory")),
    "frames": st.none() | st.integers(min_value=1, max_value=64),
    "min_quality_tier": st.sampled_from(QUALITY_LEVELS),
}


def _fixed_bundle():
    """64 rays of a FAST camera on the figure orbit's second pose."""
    camera = make_camera(FAST).with_pose(
        orbit_trajectory(2, radius=FAST.orbit_radius,
                         degrees_per_frame=FAST.degrees_per_frame).poses[1])
    origins, directions = (rays.reshape(-1, 3)
                           for rays in camera.generate_rays())
    step = origins.shape[0] // 64
    return origins[::step][:64], directions[::step][:64]


class TestRenderKeyIdentity:
    """The render memo's key is exactly what determines a render.

    Specs equal on ``render_key`` render bit-identical outputs for the
    same rays (the memo may answer one from the other); a field that
    reaches the renderer changes the key (it never answers across them).
    """

    BUNDLE = _fixed_bundle()

    @given(changes=st.fixed_dictionaries({}, optional=OUTSIDE_RENDER_KEY))
    @settings(max_examples=30, deadline=None)
    def test_fields_outside_the_key_never_change_a_render(self, changes):
        base = get_workload("vr-lego")
        other = dataclasses.replace(base, **changes)
        assert other.render_key(FAST) == base.render_key(FAST)
        for level in range(len(QUALITY_LEVELS)):
            assert other.render_key(FAST, level) \
                == base.render_key(FAST, level)
        want = base.build_renderer(FAST).render_rays(*self.BUNDLE)
        got = other.build_renderer(FAST).render_rays(*self.BUNDLE)
        for name in ("rgb", "depth_t", "opacity"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        assert got.stats == want.stats

    @given(scene=st.sampled_from(sorted(SYNTHETIC_SCENES)),
           algorithm=st.sampled_from(ALGORITHMS),
           tier=st.sampled_from(TIERS),
           level=st.integers(min_value=0,
                             max_value=len(QUALITY_LEVELS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_fields_that_reach_the_renderer_change_the_key(
            self, scene, algorithm, tier, level):
        base = get_workload("vr-lego")
        other = dataclasses.replace(base, scene=scene, algorithm=algorithm,
                                    tier=tier)
        same_renderer = (
            (scene, algorithm) == (base.scene, base.algorithm)
            and other.resolve_config(FAST, level)
            == base.resolve_config(FAST, level))
        assert (other.render_key(FAST, level)
                == base.render_key(FAST, level)) == same_renderer
        # At the native rung ``preview`` resolves to another config and
        # changes the key; at the floored ``minimal`` rung it draws the
        # inherited config's pixels.
        if tier == "preview" and level == 0:
            assert other.render_key(FAST) != base.render_key(FAST)


class TestRegistry:
    def test_builtins_are_valid(self):
        specs = list_workloads()
        assert len(specs) >= 5
        trajectories = set()
        for spec in specs:
            get_scene(spec.scene)  # raises on unknown scene
            assert spec.algorithm in ALGORITHMS
            assert spec.trajectory in TRAJECTORY_KINDS
            trajectories.add(spec.trajectory)
        # The registry exercises heterogeneous motion, not just orbits.
        assert len(trajectories) >= 3

    def test_every_registered_choice_is_used(self):
        # A trajectory kind or tier that no registered workload and no
        # figure selects is reachable only from its own tests.  Figures
        # build orbit specs at the inherited tier (figure_workload); the
        # CLI-exposed tables (arrivals, placements, schedulers, variants)
        # are exempt: users reach those by flag.
        figure = figure_workload("directvoxgo")
        used = {(spec.trajectory, spec.tier)
                for spec in [figure, *list_workloads()]}
        assert set(TRAJECTORY_KINDS) == {kind for kind, _ in used}
        assert set(TIERS) == {tier for _, tier in used}

    def test_get_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_register_duplicate_rejected(self):
        spec = WORKLOADS["vr-lego"]
        with pytest.raises(ValueError, match="already registered"):
            register_workload(spec)

    def test_parse_mix_string(self):
        mix = parse_mix("vr-lego:3,dolly-chair")
        assert [(s.name, n) for s, n in mix] == [("vr-lego", 3),
                                                 ("dolly-chair", 1)]

    def test_parse_mix_list_and_pairs(self):
        spec = WORKLOADS["vr-lego"]
        assert parse_mix(["vr-lego:2"])[0][1] == 2
        assert parse_mix([(spec, 4)]) == [(spec, 4)]
        # Pairs may name the spec by string; it resolves via the registry.
        assert parse_mix([("vr-lego", 2)]) == [(spec, 2)]
        with pytest.raises(KeyError, match="unknown workload"):
            parse_mix([("bogus", 2)])
        with pytest.raises(ValueError, match="count must be >= 1"):
            parse_mix([("vr-lego", 0)])

    def test_parse_mix_merges_repeated_names(self):
        mix = parse_mix("vr-lego,dolly-chair,vr-lego:2")
        assert [(s.name, n) for s, n in mix] == [("vr-lego", 3),
                                                 ("dolly-chair", 1)]

    def test_parse_mix_rejects_same_name_different_specs(self):
        clone = dataclasses.replace(WORKLOADS["vr-lego"], seed=99)
        with pytest.raises(ValueError, match="same name"):
            parse_mix([(WORKLOADS["vr-lego"], 1), (clone, 1)])

    def test_parse_mix_errors(self):
        with pytest.raises(ValueError, match="empty workload mix"):
            parse_mix("")
        with pytest.raises(ValueError, match="count must be >= 1"):
            parse_mix("vr-lego:0")
        with pytest.raises(ValueError, match="bad workload count"):
            parse_mix("vr-lego:x")
        with pytest.raises(KeyError, match="unknown workload"):
            parse_mix("vr-lego,bogus:2")

    def test_build_mixed_sessions_ids_and_frames(self):
        sessions = build_mixed_sessions("vr-lego:2,vr-headshake", FAST,
                                        frames=2)
        assert [s.session_id for s in sessions] == [
            "vr-lego-00", "vr-lego-01", "vr-headshake-00"]
        assert all(s.num_frames == 2 for s in sessions)
        # Copies of one spec share the identical trajectory + cache key;
        # distinct specs do not.
        assert np.array_equal(sessions[0].poses[0], sessions[1].poses[0])
        assert sessions[0].cache_key == sessions[1].cache_key
        assert sessions[0].cache_key != sessions[2].cache_key
