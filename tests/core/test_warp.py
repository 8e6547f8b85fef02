"""Tests for SPARW forward warping (steps 1-3).

The second half holds the warp path as it was before it split surface from
void points (one z-buffer over every lifted point, whole-frame pinhole sums,
background evaluated on every pixel) as an equality oracle: the warp and
the assembled frame must match it bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pose_helpers import rotation_y

from repro.core.sparw import VOID_FAR_DEPTH, classify_pixels, warp_frame
from repro.core.sparw import pipeline, warp as warp_module
from repro.core.sparw.pipeline import SparwRenderer
from repro.geometry import Intrinsics, PinholeCamera, look_at
from repro.geometry.pointcloud import depth_to_points
from repro.geometry.projection import nearest_source, project_to_pixels
from repro.geometry.transforms import make_pose, relative_pose
from repro.harness.configs import FAST
from repro.scenes import RayTracer, orbit_trajectory
from repro.scenes.raytracer import Frame
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def orbit(lego_scene):
    return orbit_trajectory(6, degrees_per_frame=1.0)


@pytest.fixture(scope="module")
def frames(lego_scene, small_camera, orbit):
    tracer = RayTracer(lego_scene)
    return [tracer.render(small_camera.with_pose(p)) for p in orbit.poses]


class TestIdentityWarp:
    def test_same_pose_reproduces_frame(self, frames, small_camera, orbit):
        ref = frames[0]
        cam = small_camera.with_pose(orbit[0])
        warp = warp_frame(ref, cam, cam)
        covered = warp.covered
        assert covered.mean() > 0.9 * ref.hit.mean()
        np.testing.assert_allclose(warp.image[covered],
                                   ref.image[covered], atol=0.05)

    def test_identity_warp_angle_zero(self, frames, small_camera, orbit):
        cam = small_camera.with_pose(orbit[0])
        warp = warp_frame(frames[0], cam, cam)
        assert warp.warp_angle_deg[warp.covered].max() < 0.01

    def test_void_pixels_classified(self, frames, small_camera, orbit):
        cam = small_camera.with_pose(orbit[0])
        warp = warp_frame(frames[0], cam, cam)
        # Background pixels in the reference must come back as void.
        bg = ~frames[0].hit
        assert warp.void[bg].mean() > 0.95


class TestAdjacentWarp:
    def test_high_coverage(self, frames, small_camera, orbit):
        warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(orbit[1]))
        assert warp.hole_mask.mean() < 0.06

    def test_warped_colors_match_target_render(self, frames, small_camera,
                                               orbit):
        warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(orbit[1]))
        target = frames[1]
        both = warp.covered & target.hit
        err = np.abs(warp.image[both] - target.image[both]).mean()
        assert err < 0.08

    def test_depth_consistent_with_target(self, frames, small_camera, orbit):
        warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(orbit[1]))
        target = frames[1]
        both = warp.covered & target.hit
        err = np.abs(warp.depth[both] - target.depth[both])
        assert np.median(err) < 0.05

    def test_warp_angle_scales_with_pose_delta(self, frames, small_camera,
                                               orbit):
        near = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(orbit[1]))
        far = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                         small_camera.with_pose(orbit[5]))
        assert (far.warp_angle_deg[far.covered].mean()
                > near.warp_angle_deg[near.covered].mean())

    def test_hole_mask_disjoint_from_covered_and_void(self, frames,
                                                      small_camera, orbit):
        warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(orbit[2]))
        assert not (warp.covered & warp.void).any()
        assert not (warp.hole_mask & warp.covered).any()
        assert not (warp.hole_mask & warp.void).any()


class TestPinholeFilling:
    def test_filling_reduces_holes(self, frames, small_camera, orbit):
        raw = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                         small_camera.with_pose(orbit[2]),
                         fill_pinholes=False)
        filled = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                            small_camera.with_pose(orbit[2]),
                            fill_pinholes=True)
        assert filled.hole_mask.sum() <= raw.hole_mask.sum()

    def test_resolution_mismatch_rejected(self, frames, small_camera, orbit):
        bad_camera = small_camera.scaled(0.5).with_pose(orbit[0])
        with pytest.raises(ValueError):
            warp_frame(frames[0], bad_camera,
                       small_camera.with_pose(orbit[1]))


class TestVoidFarPlane:
    def test_far_depth_constant_is_far(self, frames):
        assert VOID_FAR_DEPTH > 100.0 * np.nanmax(
            np.where(np.isfinite(frames[0].depth), frames[0].depth, 0.0))


def synthetic_frame(camera, depth_value=2.5, void_rows=0):
    """A flat-plane frame at constant depth; top `void_rows` rows are void."""
    h, w = camera.height, camera.width
    depth = np.full((h, w), float(depth_value))
    hit = np.ones((h, w), dtype=bool)
    if void_rows:
        depth[:void_rows] = np.inf
        hit[:void_rows] = False
    image = np.linspace(0.0, 1.0, h * w * 3).reshape(h, w, 3)
    return Frame(image=image, depth=depth, hit=hit, c2w=camera.c2w.copy())


class TestEdgeCases:
    def test_all_void_reference(self, small_camera, orbit):
        """A reference that saw only background warps to void, never holes."""
        ref_camera = small_camera.with_pose(orbit[0])
        all_void = synthetic_frame(ref_camera,
                                   void_rows=ref_camera.height)
        warp = warp_frame(all_void, ref_camera,
                          small_camera.with_pose(orbit[1]))
        assert not warp.covered.any()
        # The far-plane splats keep carrying "this direction is empty".
        assert warp.void.mean() > 0.9
        classification = classify_pixels(warp)
        assert not classification.warped.any()
        assert not (classification.disoccluded & warp.void).any()

    def test_zero_overlap_target_pose(self, frames, small_camera, orbit):
        """A target looking away from the scene shares no content at all."""
        eye = orbit[0][:3, 3]
        away = look_at(eye, eye + (eye - np.zeros(3)))  # look outward
        warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                          small_camera.with_pose(away))
        assert not warp.covered.any()
        classification = classify_pixels(warp)
        # Everything not void is a disocclusion: full re-render needed.
        assert (classification.disoccluded_fraction
                + classification.void_fraction) == pytest.approx(1.0)

    def test_void_far_splats_never_disoccluded(self, frames, small_camera,
                                               orbit):
        """Pixels covered by VOID_FAR_DEPTH splats are void, not holes."""
        for target_pose in (orbit[1], orbit[3], orbit[5]):
            warp = warp_frame(frames[0], small_camera.with_pose(orbit[0]),
                              small_camera.with_pose(target_pose))
            for phi in (None, 0.1):
                classification = classify_pixels(warp,
                                                 angle_threshold_deg=phi)
                assert not (classification.disoccluded & warp.void).any()
                assert not (classification.warped & warp.void).any()

    def test_half_void_reference_partitions(self, small_camera, orbit):
        ref_camera = small_camera.with_pose(orbit[0])
        half = synthetic_frame(ref_camera,
                               void_rows=ref_camera.height // 2)
        warp = warp_frame(half, ref_camera, small_camera.with_pose(orbit[2]))
        assert warp.covered.any() and warp.void.any()
        classification = classify_pixels(warp)
        total = (classification.warped_fraction
                 + classification.disoccluded_fraction
                 + classification.void_fraction)
        assert total == pytest.approx(1.0)


class TestSplatSurface:
    """Step 3 on hand-placed points: one pixel, surface vs far plane."""

    INTR = Intrinsics.from_fov(4, 4, 60.0)

    def _at(self, u, v, z):
        return [(u + 0.5 - self.INTR.cx) / self.INTR.fx * z,
                (v + 0.5 - self.INTR.cy) / self.INTR.fy * z, z]

    def test_nearer_surface_hides_void(self):
        points = np.array([self._at(1, 2, 1.0), self._at(1, 2, 9.0)])
        source, landed_void = warp_module.splat_surface(
            points, np.array([False, True]), self.INTR)
        assert source[2 * 4 + 1] == 0
        assert landed_void.tolist() == [i == 2 * 4 + 1 for i in range(16)]

    def test_nearer_void_hides_surface(self):
        points = np.array([self._at(3, 0, 5.0), self._at(3, 0, 2.0)])
        source, landed_void = warp_module.splat_surface(
            points, np.array([False, True]), self.INTR)
        assert (source == -1).all()
        assert landed_void[3]

    def test_surface_only_is_the_z_buffer(self):
        rng = np.random.default_rng(5)
        points = np.array([self._at(u, v, z) for u, v, z in zip(
            rng.integers(0, 4, 20), rng.integers(0, 4, 20),
            rng.uniform(1.0, 4.0, 20))])
        source, landed_void = warp_module.splat_surface(
            points, np.zeros(20, dtype=bool), self.INTR)
        np.testing.assert_array_equal(source, nearest_source(
            project_to_pixels(points, self.INTR), points[:, 2],
            np.arange(20), 16))
        assert not landed_void.any()

    def test_points_off_frame_land_nowhere(self):
        points = np.array([self._at(9, 1, 2.0), [0.0, 0.0, -1.0]])
        source, landed_void = warp_module.splat_surface(
            points, np.array([False, True]), self.INTR)
        assert (source == -1).all() and not landed_void.any()


class TestWarpProperties:
    """Hypothesis invariants over random target poses (pure numpy, fast)."""

    @settings(max_examples=15, deadline=None)
    @given(angle_deg=st.floats(min_value=-25.0, max_value=25.0),
           height=st.floats(min_value=0.2, max_value=1.4),
           void_rows=st.integers(min_value=0, max_value=48))
    def test_partition_and_void_invariants(self, angle_deg, height,
                                           void_rows):
        camera = PinholeCamera(Intrinsics.from_fov(48, 48, 45.0))
        ref_pose = look_at([3.0, 0.8, 0.0], [0.0, 0.0, 0.0])
        a = np.radians(angle_deg)
        tgt_pose = look_at([3.0 * np.cos(a), height, 3.0 * np.sin(a)],
                           [0.0, 0.0, 0.0])
        reference = synthetic_frame(camera.with_pose(ref_pose),
                                    void_rows=void_rows)
        warp = warp_frame(reference, camera.with_pose(ref_pose),
                          camera.with_pose(tgt_pose))

        # The three masks partition the target frame.
        assert not (warp.covered & warp.void).any()
        assert not (warp.hole_mask & (warp.covered | warp.void)).any()
        assert (warp.covered | warp.void | warp.hole_mask).all()

        # Far-plane (void) splats are never promoted to disocclusions,
        # with or without the warping-angle threshold.
        for phi in (None, 1.0):
            classification = classify_pixels(warp, angle_threshold_deg=phi)
            assert not (classification.disoccluded & warp.void).any()

        # Covered pixels carry finite depth; uncovered carry +inf.
        assert np.isfinite(warp.depth[warp.covered]).all()
        assert np.isinf(warp.depth[~warp.covered]).all()

        # And every array is the oracle's, bit for bit.
        _assert_warp_matches_oracle(reference, camera.with_pose(ref_pose),
                                    camera.with_pose(tgt_pose))


# -- the oracle: the warp path before the surface/void split ------------------


def _oracle_splat_points(points_cam, colors, intrinsics, valid=None):
    """Splatting as it was: boolean-mask projection, one z-buffer."""
    points = np.asarray(points_cam, dtype=float)
    colors = np.asarray(colors, dtype=float)
    height, width = intrinsics.height, intrinsics.width
    z = points[:, 2]
    ok = np.isfinite(z) & (z > 1e-9)
    if valid is not None:
        ok = ok & np.asarray(valid, dtype=bool)
    u = np.full(points.shape[0], -1.0)
    v = np.full(points.shape[0], -1.0)
    safe_z = np.where(ok, z, 1.0)
    u[ok] = intrinsics.fx * points[ok, 0] / safe_z[ok] + intrinsics.cx
    v[ok] = intrinsics.fy * points[ok, 1] / safe_z[ok] + intrinsics.cy
    px = np.floor(u).astype(np.int64)
    py = np.floor(v).astype(np.int64)
    ok &= (px >= 0) & (px < width) & (py >= 0) & (py < height)
    image = np.zeros((height, width, 3))
    depth = np.full((height, width), np.inf)
    source_index = np.full((height, width), -1, dtype=np.int64)
    idx = np.nonzero(ok)[0]
    if idx.size:
        flat = py[idx] * width + px[idx]
        order = np.argsort(-z[idx], kind="stable")
        flat_sorted = flat[order]
        src_sorted = idx[order]
        depth.reshape(-1)[flat_sorted] = z[idx][order]
        image.reshape(-1, 3)[flat_sorted] = colors[src_sorted]
        source_index.reshape(-1)[flat_sorted] = src_sorted
    return SimpleNamespace(image=image, depth=depth,
                           covered=np.isfinite(depth),
                           source_index=source_index)


def _oracle_fill_pinholes(image, depth, covered, angle, min_neighbors=5):
    """``_fill_pinholes`` as it was: padded whole-frame neighbour sums."""
    height, width = depth.shape
    pad_cov = np.pad(covered, 1)
    pad_img = np.pad(image, ((1, 1), (1, 1), (0, 0)))
    pad_depth = np.pad(np.where(covered, depth, 0.0), 1)
    neighbor_count = np.zeros((height, width), dtype=np.int64)
    color_sum = np.zeros_like(image)
    depth_sum = np.zeros_like(depth)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            rows = slice(1 + dy, 1 + dy + height)
            cols = slice(1 + dx, 1 + dx + width)
            neighbor_count += pad_cov[rows, cols]
            color_sum += pad_img[rows, cols]
            depth_sum += pad_depth[rows, cols]
    fill = ~covered & (neighbor_count >= min_neighbors)
    if fill.any():
        counts = neighbor_count[fill][:, None]
        image[fill] = color_sum[fill] / counts
        depth[fill] = depth_sum[fill] / counts[:, 0]
        covered[fill] = True
        angle[fill] = 0.0


def _oracle_transform(points, transform):
    return points @ transform[:3, :3].T + transform[:3, 3]


def _oracle_warp_frame(reference, ref_camera, target_camera,
                       fill_pinholes=True):
    """``warp_frame`` as it was: every lifted point through one z-buffer."""
    depth = reference.depth
    is_void = ~np.isfinite(depth)
    points_ref = depth_to_points(np.where(is_void, VOID_FAR_DEPTH, depth),
                                 ref_camera.intrinsics)
    points_tgt = _oracle_transform(
        points_ref, relative_pose(reference.c2w, target_camera.c2w))
    splat = _oracle_splat_points(points_tgt, reference.image.reshape(-1, 3),
                                 target_camera.intrinsics)
    src = splat.source_index
    has_point = src >= 0
    src_safe = np.where(has_point, src, 0)
    from_void = has_point & is_void.reshape(-1)[src_safe]
    covered = has_point & ~from_void
    angle = np.zeros_like(splat.depth)
    if covered.any():
        pts_world = _oracle_transform(points_ref[src_safe[covered]],
                                      reference.c2w)
        to_ref = reference.c2w[:3, 3] - pts_world
        to_tgt = target_camera.position - pts_world
        nr = np.linalg.norm(to_ref, axis=-1)
        nt = np.linalg.norm(to_tgt, axis=-1)
        denom = np.where(nr * nt < 1e-12, 1.0, nr * nt)
        cos = np.clip((to_ref * to_tgt).sum(axis=-1) / denom, -1.0, 1.0)
        angle[covered] = np.degrees(np.arccos(cos))
    depth_out = np.where(covered, splat.depth, np.inf)
    image_out = np.where(covered[..., None], splat.image, 0.0)
    if fill_pinholes:
        covered = covered.copy()
        _oracle_fill_pinholes(image_out, depth_out, covered, angle)
        depth_out = np.where(covered, depth_out, np.inf)
    return [image_out, depth_out, covered, from_void & ~covered, angle]


def _oracle_assemble(background, warp, classification, target_camera,
                     pixel_ids, colors, z):
    """``SparwRenderer._assemble_target`` as it was: background everywhere."""
    image = warp.image.copy()
    depth = warp.depth.copy()
    hit = classification.warped.copy()
    if pixel_ids.size:
        image.reshape(-1, 3)[pixel_ids] = colors
        depth.reshape(-1)[pixel_ids] = z
        hit.reshape(-1)[pixel_ids] = np.isfinite(z)
    if background is not None:
        void = classification.void & ~classification.disoccluded
        if void.any():
            intr = target_camera.intrinsics
            u, v = np.meshgrid(np.arange(intr.width, dtype=float) + 0.5,
                               np.arange(intr.height, dtype=float) + 0.5)
            dirs_cam = np.stack([(u - intr.cx) / intr.fx,
                                 (v - intr.cy) / intr.fy,
                                 np.ones_like(u)], axis=-1)
            dirs = dirs_cam @ target_camera.c2w[:3, :3].T
            dirs = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
            bg = background(dirs.reshape(-1, 3))
            image.reshape(-1, 3)[void.reshape(-1)] = bg[void.reshape(-1)]
    return [image, depth, hit, target_camera.c2w.copy()]


def _warp_arrays(warp):
    return [warp.image, warp.depth, warp.covered, warp.void,
            warp.warp_angle_deg]


def _frame_arrays(frame):
    return [frame.image, frame.depth, frame.hit, frame.c2w]


def _assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # signs of zeros too


def _assert_warp_matches_oracle(reference, ref_camera, target_camera,
                                fill_pinholes=True, background=None):
    """Warp and assemble (with made-up sparse fills) against the oracle."""
    warp = warp_frame(reference, ref_camera, target_camera, fill_pinholes)
    _assert_same_arrays(_warp_arrays(warp),
                        _oracle_warp_frame(reference, ref_camera,
                                           target_camera, fill_pinholes))
    classification = classify_pixels(warp, angle_threshold_deg=2.0)
    pixel_ids = classification.rerender_pixel_ids()
    colors = np.linspace(0.0, 1.0, pixel_ids.size * 3).reshape(-1, 3)
    z = np.where(pixel_ids % 3 == 0, np.inf, 1.0 + pixel_ids / 7.0)
    sparw = SparwRenderer(SimpleNamespace(background=background),
                          target_camera)
    frame = sparw._assemble_target(warp, classification, target_camera,
                                   pixel_ids, colors, z)
    _assert_same_arrays(_frame_arrays(frame),
                        _oracle_assemble(background, warp, classification,
                                         target_camera, pixel_ids, colors, z))
    return warp


SOLO_SPARW_PLAN = (("vr-lego", 16), ("dolly-chair", 16), ("orbit-ngp", 8),
                   ("sparse-ignatius", 4))


@pytest.fixture(scope="module")
def solo_sparw_calls():
    """Every warp and assembly of the ``solo_sparw`` specs at FAST, with
    their inputs, as the pipeline made them."""
    warps, assembles = [], []
    real_warp = pipeline.warp_frame
    real_assemble = SparwRenderer._assemble_target

    def warp_spy(reference, ref_camera, target_camera):
        warp = real_warp(reference, ref_camera, target_camera)
        warps.append(((reference, ref_camera, target_camera), warp))
        return warp

    def assemble_spy(self, *args):
        frame = real_assemble(self, *args)
        assembles.append(((self.renderer.background, *args), frame))
        return frame

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "warp_frame", warp_spy)
        patch.setattr(SparwRenderer, "_assemble_target", assemble_spy)
        for name, frames in SOLO_SPARW_PLAN:
            spec = get_workload(name).with_overrides(frames=frames)
            spec.build_sparw(FAST).render_sequence(
                spec.build_trajectory(FAST).poses)
    return warps, assembles


def _flat_camera(width=48, height=48, pose=None):
    """A camera at the world origin (so relative poses are exact)."""
    return PinholeCamera(Intrinsics.from_fov(width, height, 45.0),
                         np.eye(4) if pose is None else pose)


def _plane(camera, depth_value, void=None):
    """A constant-depth frame with a distinct colour per pixel."""
    frame = synthetic_frame(camera, depth_value=depth_value)
    if void is not None:
        frame.depth[void] = np.inf
        frame.hit[void] = False
    return frame


class TestOracle:
    """Bit-identity with the warp path before the surface/void split."""

    def test_every_solo_sparw_pose(self, solo_sparw_calls):
        warps, assembles = solo_sparw_calls
        assert len(warps) == len(assembles) == sum(
            frames for _, frames in SOLO_SPARW_PLAN)
        for inputs, warp in warps:
            _assert_same_arrays(_warp_arrays(warp),
                                _oracle_warp_frame(*inputs))
        for inputs, frame in assembles:
            _assert_same_arrays(_frame_arrays(frame),
                                _oracle_assemble(*inputs))

    @pytest.mark.parametrize("fill", [True, False])
    def test_identity_pose(self, frames, small_camera, orbit, lego_scene,
                           fill):
        camera = small_camera.with_pose(orbit[0])
        _assert_warp_matches_oracle(frames[0], camera, camera, fill,
                                    background=lego_scene.background)

    @pytest.mark.parametrize("fill", [True, False])
    @pytest.mark.parametrize("void_rows", [48, 24])
    def test_all_and_half_void_reference(self, small_camera, orbit,
                                         lego_scene, void_rows, fill):
        ref_camera = small_camera.with_pose(orbit[0])
        reference = synthetic_frame(ref_camera, void_rows=void_rows)
        for pose in (orbit[1], orbit[4]):
            _assert_warp_matches_oracle(reference, ref_camera,
                                        small_camera.with_pose(pose), fill,
                                        background=lego_scene.background)

    def test_zero_overlap_pose(self, frames, small_camera, orbit,
                               lego_scene):
        eye = orbit[0][:3, 3]
        away = small_camera.with_pose(look_at(eye, 2.0 * eye))
        warp = _assert_warp_matches_oracle(
            frames[0], small_camera.with_pose(orbit[0]), away,
            background=lego_scene.background)
        assert not warp.covered.any()

    @pytest.mark.parametrize("fill", [True, False])
    def test_surface_points_tied_in_depth(self, fill):
        # Half-resolution target at the same (identity) pose: each target
        # pixel receives a 2x2 block of points at exactly the same depth.
        camera = _flat_camera()
        target = PinholeCamera(camera.intrinsics.scaled(0.5), np.eye(4))
        warp = _assert_warp_matches_oracle(_plane(camera, 2.5), camera,
                                           target, fill)
        assert warp.covered.all()

    @pytest.mark.parametrize("surface_depth",
                             [2.5, VOID_FAR_DEPTH, 2.0 * VOID_FAR_DEPTH])
    def test_void_and_surface_point_on_one_pixel(self, surface_depth):
        # Checkerboard void, flipped on every other pair of columns: every
        # target pixel gets two void and two surface points, and its last
        # point is void or surface by column pair.  The surface is nearer,
        # tied with the far plane (the later point wins), or farther (the
        # background wins).
        camera = _flat_camera()
        rows, cols = np.indices((48, 48))
        reference = _plane(camera, surface_depth,
                           void=((rows + cols) % 2 == 0) ^ (cols // 2 % 2 == 1))
        target = PinholeCamera(camera.intrinsics.scaled(0.5), np.eye(4))
        warp = _assert_warp_matches_oracle(reference, camera, target)
        if surface_depth < VOID_FAR_DEPTH:
            assert warp.covered.all()
        elif surface_depth > VOID_FAR_DEPTH:
            assert warp.void.all()
        else:
            assert warp.covered.any() and warp.void.any()

    @pytest.mark.parametrize("target_pose", [
        make_pose(np.eye(3), [0.0, 0.0, 3.0]),  # past the plane: all behind
        make_pose(rotation_y(np.radians(70.0)), [0.0, 0.0, 0.0]),  # part
    ])
    def test_points_behind_target_camera(self, target_pose):
        camera = _flat_camera()
        reference = _plane(camera, 2.5, void=np.s_[:5])
        _assert_warp_matches_oracle(reference, camera,
                                    camera.with_pose(target_pose))

    @pytest.mark.parametrize("fill", [True, False])
    def test_exactly_one_covered_pixel(self, small_camera, orbit, fill):
        # The warp angle of one covered pixel is a one-row matrix product.
        ref_camera = small_camera.with_pose(orbit[0])
        single = np.ones((48, 48), dtype=bool)
        single[20, 30] = False
        reference = _plane(ref_camera, 2.5, void=single)
        warp = _assert_warp_matches_oracle(
            reference, ref_camera, small_camera.with_pose(orbit[1]), fill)
        assert warp.covered.sum() == 1

    def test_splat_points_matches_oracle(self):
        rng = np.random.default_rng(5)
        intrinsics = Intrinsics.from_fov(16, 12, 60.0)
        points = np.stack([rng.uniform(-2.0, 2.0, 400),
                           rng.uniform(-2.0, 2.0, 400),
                           rng.choice([-1.0, 0.0, 1.0, 2.0, 3.0], 400)],
                          axis=1)  # many exact depth ties, some behind
        colors = rng.uniform(size=(400, 3))
        valid = rng.uniform(size=400) < 0.8
        for mask in (None, valid):
            pixel = project_to_pixels(points, intrinsics, mask)
            landed = np.flatnonzero(pixel >= 0)
            source = nearest_source(pixel[landed], points[landed, 2], landed,
                                    16 * 12)
            want = _oracle_splat_points(points, colors, intrinsics,
                                        valid=mask)
            _assert_same_arrays([source], [want.source_index.reshape(-1)])


def test_depth_sort_sees_only_surface_points(monkeypatch, small_camera,
                                             orbit):
    """Void points never enter the z-buffer's sort (clock-free guard)."""
    sorted_sources = []
    real_nearest = warp_module.nearest_source

    def spy(pixel_ids, z, src, num_pixels):
        sorted_sources.append(src)
        return real_nearest(pixel_ids, z, src, num_pixels)

    monkeypatch.setattr(warp_module, "nearest_source", spy)
    camera = small_camera.with_pose(orbit[0])
    reference = synthetic_frame(camera, void_rows=30)
    warp_frame(reference, camera, camera)
    (src,) = sorted_sources
    surface = np.flatnonzero(np.isfinite(reference.depth.reshape(-1)))
    assert 0 < src.size <= surface.size < reference.depth.size
    assert np.isin(src, surface).all()
