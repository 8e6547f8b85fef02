"""Vectorized hot-path kernels are bit-identical to their predecessors.

Every such optimization moved its previous implementation into
``tests/reference_kernels.py``; these tests pin the optimized kernels to
those predecessors with exact (``array_equal``) comparisons on inputs
that include the awkward cases — coordinates exactly on cell boundaries,
out-of-bounds points, rays that miss the AABB.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference_kernels import (bilinear_setup_reference, decode_reference,
                               depth_to_points_reference,
                               generate_rays_reference,
                               hashed_slots_reference,
                               interpolate_hash_reference,
                               interpolate_voxel_reference,
                               occupied_reference, rays_for_pixels_reference,
                               reference_renderer, sample_reference,
                               trilinear_setup_reference)

from repro.geometry.camera import Intrinsics, PinholeCamera
from repro.geometry.pointcloud import depth_to_points
from repro.geometry.rays import intersect_aabb
from repro.harness.configs import FAST, build_renderer, make_camera
from repro.nerf.baking import PROBE_DIRECTIONS, vertex_grid_positions
from repro.nerf.fields import interp
from repro.nerf.fields.interp import (accumulate_gather, bilinear_setup,
                                      trilinear_gather, trilinear_setup)
from repro.nerf.sampling import (_SCRATCH, OccupancyGrid, UniformSampler,
                                 clear_sampling_scratch)
from repro.scenes import REAL_WORLD_SCENES, SYNTHETIC_SCENES, get_scene
from repro.workloads import get_workload

RNG = np.random.default_rng(20240730)
SRC = Path(__file__).resolve().parents[2] / "src"


def test_no_library_module_imports_the_oracles():
    # The predecessors are test code: an installed package has no
    # tests/ directory to import them from.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "",
                         *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("reference_kernels" in name.split(".")
                   for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders


def _coords(n=4096):
    """[0, 1] coords peppered with exact boundary and on-lattice values."""
    coords = RNG.uniform(size=(n, 3))
    coords[:64] = RNG.integers(0, 2, size=(64, 3)).astype(float)  # corners
    coords[64:128] = RNG.integers(0, 17, size=(64, 3)) / 16.0  # lattice
    return coords


@pytest.mark.parametrize("resolution", [1, 7, 32])
def test_trilinear_setup_bit_identical(resolution):
    coords = _coords()
    got = trilinear_setup(coords, resolution)
    want = trilinear_setup_reference(coords, resolution)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("resolution", [1, 9, 24])
def test_bilinear_setup_bit_identical(resolution):
    coords = _coords()[:, :2]
    got = bilinear_setup(coords, resolution)
    want = bilinear_setup_reference(coords, resolution)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_trilinear_gather_matches_setup_weights():
    coords = _coords()
    resolution = 16
    _, vertex_ids, weights = trilinear_setup_reference(coords, resolution)
    base, offsets, factors = trilinear_gather(coords, resolution)
    assert np.array_equal(base[:, None] + offsets[None, :], vertex_ids)
    table = RNG.normal(size=((resolution + 1) ** 3, 5))
    got = accumulate_gather(table, base, offsets, factors)
    want = np.einsum("nvf,nv->nf", table[vertex_ids], weights)
    assert np.array_equal(got, want)


TILE = interp._TILE_ROWS


@pytest.mark.parametrize("count",
                         [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
@pytest.mark.parametrize("hashed", [False, True])
def test_accumulate_gather_tile_edges(count, hashed):
    """Sample counts around the tile size, with and without a slot table."""
    coords = _coords(max(count, 128))[:count]
    resolution = 16
    _, vertex_ids, weights = trilinear_setup_reference(coords, resolution)
    base, offsets, factors = trilinear_gather(coords, resolution)
    slots = None
    if hashed:
        slots = RNG.integers(0, 512, size=(resolution + 1) ** 3)
        vertex_ids = slots[vertex_ids]
    table = RNG.normal(size=(512 if hashed else (resolution + 1) ** 3, 5))
    got = accumulate_gather(table, base, offsets, factors, slots=slots)
    want = np.einsum("nvf,nv->nf", table[vertex_ids], weights)
    assert got.shape == (count, 5)
    assert np.array_equal(got, want)


def test_occupancy_lookup_bit_identical():
    grid = OccupancyGrid(RNG.random((32, 32, 32)) > 0.5,
                         (np.array([-1.0, -1.0, -1.0]),
                          np.array([1.0, 1.0, 1.0])))
    points = RNG.uniform(-1.5, 1.5, size=(20000, 3))  # includes out-of-bounds
    points[:32] = np.array([[-1.0, 0.0, 1.0]])  # exact bound hits
    assert np.array_equal(grid.occupied(points),
                          occupied_reference(grid, points))


@pytest.mark.parametrize("with_occupancy", [False, True])
def test_sampler_bit_identical(with_occupancy):
    renderer = build_renderer("directvoxgo", "lego", FAST)
    occupancy = renderer.sampler.occupancy if with_occupancy else None
    camera = make_camera(FAST)
    origins, directions = camera.generate_rays()
    # Mix in rays guaranteed to miss the AABB.
    origins = origins.reshape(-1, 3)
    directions = directions.reshape(-1, 3).copy()
    directions[:40] = np.array([0.0, 0.0, -1.0])  # fire backwards

    sampler = UniformSampler(24, occupancy=occupancy)
    got = sampler.sample(origins, directions, renderer.field.bounds)
    want = sample_reference(sampler, origins, directions,
                            renderer.field.bounds)
    assert got.num_rays == want.num_rays
    for name in ("positions", "directions", "t_values", "deltas",
                 "ray_index"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _orbit_frame(name="vr-lego"):
    """(renderer, origins, directions): FAST frame from the orbit's first pose.

    Unlike ``make_camera``'s identity pose (inside the occupied box, so
    every ray hits it) an orbit pose sees the box from outside.
    """
    spec = get_workload(name)
    sparw = spec.build_sparw(FAST)
    camera = sparw.camera.with_pose(spec.build_trajectory(FAST).poses[0])
    origins, directions = camera.generate_rays()
    return (sparw.renderer, origins.reshape(-1, 3),
            directions.reshape(-1, 3).copy())


def _cull_bundle(kind, renderer, origins, directions):
    """Ray bundles that exercise the occupied-box cull's edge cases."""
    box_lo, box_hi = renderer.sampler.occupancy.occupied_box
    assert np.isfinite(box_lo).all() and np.isfinite(box_hi).all()
    if kind == "all_miss":
        return np.tile([0.0, 5.0, -3.0], (7, 1)), np.tile([0.0, 0.0, 1.0],
                                                          (7, 1))
    if kind == "single_ray":
        return np.array([[0.05, 0.02, -3.0]]), np.array([[0.0, 0.0, 1.0]])
    directions[:40] *= -1.0  # fire away from the field: miss its AABB
    diagonal = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    edge = np.array([box_hi[0], box_hi[1], 0.0])
    extra_o = np.array([
        [1.3, 1.3, -3.0],            # inside the field, beside the box
        [box_hi[0], 0.0, -3.0],      # runs inside the plane of a box face
        edge - 2.0 * diagonal,       # touches the box along one edge only
        [0.05, 0.02, -3.0],          # two zero direction components
        [0.05, -1.0, -3.0],          # one zero direction component
    ])
    extra_d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], diagonal,
                        [0.0, 0.0, 1.0], [0.0, 0.3, 0.9]])
    return (np.concatenate([origins, extra_o]),
            np.concatenate([directions, extra_d]))


@pytest.mark.parametrize("kind", ["mixed", "all_miss", "single_ray"])
def test_sampler_cull_bit_identical(kind):
    """The occupied-box ray cull never changes the kept set."""
    renderer, origins, directions = _orbit_frame()
    occupancy = renderer.sampler.occupancy
    bounds = renderer.field.bounds
    origins, directions = _cull_bundle(kind, renderer, origins, directions)
    if kind == "mixed":  # the bundle really holds every class of ray
        field_hit = intersect_aabb(origins, directions, *bounds,
                                   near=1e-4)[2]
        box_hit = intersect_aabb(origins, directions,
                                 *occupancy.occupied_box)[2]
        assert (~field_hit).any() and (field_hit & ~box_hit).any()
        assert (field_hit & box_hit).any()

    sampler = UniformSampler(24, occupancy=occupancy)
    got = sampler.sample(origins, directions, bounds)
    want = sample_reference(sampler, origins, directions, bounds)
    assert got.num_rays == want.num_rays == origins.shape[0]
    assert len(want) > 0 or kind == "all_miss"
    for name in ("positions", "directions", "t_values", "deltas",
                 "ray_index"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.positions.flags.c_contiguous


def test_sampler_lattice_covers_live_rays_only():
    """Count guard: the position lattice is built for culled-in rays only."""
    renderer, origins, directions = _orbit_frame()
    sampler = renderer.sampler
    bounds = renderer.field.bounds
    live = (intersect_aabb(origins, directions, *bounds, near=1e-4)[2]
            & intersect_aabb(origins, directions,
                             *sampler.occupancy.occupied_box)[2])
    live_rays = int(live.sum())
    assert 0 < live_rays < origins.shape[0]
    clear_sampling_scratch()
    samples = sampler.sample(origins, directions, bounds)
    assert len(samples) > 0
    assert (_SCRATCH["sample.positions"].nbytes
            == 3 * live_rays * sampler.num_samples * 8)
    clear_sampling_scratch()


def test_hashed_levels_slot_table_matches_divmod_hash():
    """FAST instant_ngp: both hashed levels' table == the per-query hash."""
    field = build_renderer("instant_ngp", "lego", FAST).field
    hashed = [level for level in field.levels if not level.dense]
    assert [(lv.resolution, lv.table_size) for lv in hashed] == [
        (20, 4096), (32, 4096)]
    assert all(level.slot_of_vertex is None
               for level in field.levels if level.dense)
    for level in hashed:
        _, vertex_ids, _ = trilinear_setup(_coords(), level.resolution)
        assert np.array_equal(level.slot_of_vertex[vertex_ids],
                              hashed_slots_reference(level, vertex_ids))
        every = np.arange((level.resolution + 1) ** 3)
        assert np.array_equal(level.slot_of_vertex,
                              hashed_slots_reference(level, every))


def test_hash_interpolate_allocates_no_corner_blocks():
    """Count guard: no (N, 8) id / (N, 8, F) blocks per hashed level."""
    field = build_renderer("instant_ngp", "lego", FAST).field
    lo, hi = field.bounds
    points = RNG.uniform(size=(5000, 3)) * (hi - lo) + lo
    field.interpolate(points)  # warm the per-resolution setup tables
    tracemalloc.start()
    try:
        result = field.interpolate(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * result.nbytes


@pytest.mark.parametrize("algorithm", ["directvoxgo", "instant_ngp"])
def test_field_interpolate_bit_identical(algorithm):
    field = build_renderer(algorithm, "lego", FAST).field
    lo, hi = field.bounds
    points = RNG.uniform(size=(5000, 3)) * (hi - lo) + lo
    points[:16] = lo  # exact corner
    points[16:32] = hi
    reference = (interpolate_voxel_reference if algorithm == "directvoxgo"
                 else interpolate_hash_reference)
    assert np.array_equal(field.interpolate(points),
                          reference(field, points))


def test_decode_passthrough_bit_identical_to_mlp():
    decoder = build_renderer("directvoxgo", "lego", FAST).field.decoder
    features = RNG.normal(size=(20000, decoder.feature_dim)) * 30.0
    dirs = RNG.normal(size=(20000, 3))
    sigma, rgb = decoder.decode(features, dirs)
    sigma_ref, rgb_ref = decode_reference(decoder, features, dirs)
    assert np.array_equal(sigma, sigma_ref)
    assert np.array_equal(rgb, rgb_ref)


def test_depth_to_points_bit_identical():
    intr = Intrinsics.from_fov(33, 21, 50.0)
    depth = RNG.uniform(0.5, 5.0, size=(21, 33))
    depth[0, :5] = np.inf
    assert np.array_equal(depth_to_points(depth, intr),
                          depth_to_points_reference(depth, intr))


def test_camera_rays_bit_identical():
    intr = Intrinsics.from_fov(48, 48, 45.0)
    pose = np.eye(4)
    pose[:3, 3] = [0.3, -0.2, 2.5]
    camera = PinholeCamera(intr, pose)
    got_o, got_d = camera.generate_rays()
    want_o, want_d = generate_rays_reference(camera)
    assert np.array_equal(got_o, want_o)
    assert np.array_equal(got_d, want_d)
    u = RNG.uniform(0, 48, size=77)
    v = RNG.uniform(0, 48, size=77)
    got = camera.rays_for_pixels(u, v)
    want = rays_for_pixels_reference(camera, u, v)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_full_frame_render_bit_identical_to_reference_renderer():
    """End to end: the whole optimized renderer equals the reference one."""
    renderer = build_renderer("directvoxgo", "lego", FAST)
    baseline = reference_renderer(renderer)
    camera = make_camera(FAST)
    pose = np.eye(4)
    pose[:3, 3] = [0.0, 0.0, 3.2]
    cam = camera.with_pose(pose)
    origins, directions = cam.generate_rays()
    got = renderer.render_rays(origins.reshape(-1, 3),
                               directions.reshape(-1, 3))
    want = baseline.render_rays(origins.reshape(-1, 3),
                                directions.reshape(-1, 3))
    assert np.array_equal(got.rgb, want.rgb)
    assert np.array_equal(got.depth_t, want.depth_t)
    assert np.array_equal(got.opacity, want.opacity)
    assert got.stats == want.stats


# -- scenes: one geometry pass vs. per-query re-derivation -----------------------
#
# The Scene queries as they were before the one-pass restructuring, over the
# last-axis primitive formulas in tests/conftest.py: every query re-evaluates
# every object, ``shade`` re-derives the nearest object and the albedo per
# call, dot products and norms reduce along the last axis.


class _PerQueryScene:
    def __init__(self, scene, last_axis_distance, last_axis_normals):
        self.scene = scene
        self._distance = last_axis_distance
        self._normals = last_axis_normals

    def _distances(self, points):
        return [self._distance(obj.sdf, points) for obj in self.scene.objects]

    def distance(self, points):
        return np.minimum.reduce(self._distances(points))

    def object_index(self, points):
        return np.argmin(np.stack(self._distances(points), axis=-1), axis=-1)

    def normals(self, points):
        return self._normals(self.distance, points)

    def shade(self, points, normals, view_dirs=None):
        scene = self.scene
        flat_p = points.reshape(-1, 3)
        flat_n = normals.reshape(-1, 3)
        idx = self.object_index(flat_p)
        color = np.zeros_like(flat_p)
        for i, obj in enumerate(scene.objects):
            mask = idx == i
            if not mask.any():
                continue
            albedo = obj.material.albedo(flat_p[mask])
            shaded = scene.ambient * albedo
            for light in scene.lights:
                ndotl = np.clip(-flat_n[mask] @ light.direction, 0.0, 1.0)
                shaded = shaded + albedo * light.color * (
                    light.intensity * ndotl)[..., None]
                if view_dirs is not None and obj.material.specular > 0.0:
                    half = -(light.direction
                             + view_dirs.reshape(-1, 3)[mask])
                    half_norm = np.linalg.norm(half, axis=-1, keepdims=True)
                    half = half / np.where(half_norm < 1e-12, 1.0, half_norm)
                    spec = np.clip((flat_n[mask] * half).sum(axis=-1),
                                   0.0, 1.0) ** obj.material.shininess
                    shaded = shaded + obj.material.specular * (
                        light.intensity) * (light.color * spec[..., None])
            color[mask] = shaded
        return np.clip(color, 0.0, 1.0).reshape(points.shape)

    def diffuse_radiance(self, points):
        return self.shade(points, self.normals(points.reshape(-1, 3)))


ALL_SCENES = sorted(SYNTHETIC_SCENES) + sorted(REAL_WORLD_SCENES)


def _scene_points(scene):
    """Random points, the shell of the 33^3 lattice, and signed zeros."""
    rng = np.random.default_rng(5)
    lattice = vertex_grid_positions(scene.bounds, 32)
    shell = lattice[np.abs(scene.distance(lattice)) < 0.25]
    spread = rng.uniform(-1.5, 1.5, size=(400, 3))
    zeros = rng.uniform(-1.0, 1.0, size=(100, 3))
    zeros[rng.random(size=zeros.shape) < 0.4] = 0.0
    zeros[rng.random(size=zeros.shape) < 0.2] = -0.0
    return lattice, np.vstack([shell[:: max(1, len(shell) // 1500)],
                               spread, zeros])


@pytest.mark.parametrize("name", ALL_SCENES)
def test_scene_queries_bit_identical_to_per_query_formulas(
        name, last_axis_distance, last_axis_normals, assert_same_bits):
    scene = get_scene(name)
    old = _PerQueryScene(scene, last_axis_distance, last_axis_normals)
    lattice, pts = _scene_points(scene)
    block = pts[:1200].reshape(30, 40, 3)

    assert_same_bits(scene.distance(lattice), old.distance(lattice))
    assert_same_bits(scene.object_index(lattice), old.object_index(lattice))
    for points in (pts, block, pts[7]):
        assert_same_bits(scene.distance(points), old.distance(points))
        assert_same_bits(scene.object_index(points),
                         old.object_index(points))
        assert_same_bits(scene.normals(points), old.normals(points))
        assert_same_bits(scene.diffuse_radiance(points),
                         old.diffuse_radiance(points))

    normals = old.normals(pts)
    rng = np.random.default_rng(6)
    views = rng.normal(size=pts.shape)
    views /= np.linalg.norm(views, axis=-1, keepdims=True)
    views[:5] = -scene.lights[0].direction  # zero half vector
    assert_same_bits(scene.shade(pts, normals, views),
                     old.shade(pts, normals, views))
    assert_same_bits(scene.shade(block, normals[:1200], views[:1200]),
                     old.shade(block, normals[:1200], views[:1200]))
    assert_same_bits(scene.shade(pts[7], normals[7], views[7]),
                     old.shade(pts[7], normals[7], views[7]))

    # What the baker asks of the pass: per object, the diffuse radiance and
    # twelve one-direction shades, whole or in runs of rows.
    surface = scene.surface(pts)
    assert sorted(np.concatenate([p.rows for p in surface.parts])) \
        == list(range(len(pts)))
    diffuse = old.diffuse_radiance(pts)
    for probe in PROBE_DIRECTIONS[::5]:
        want = old.shade(pts, normals, np.broadcast_to(-probe, pts.shape))
        for part in surface.parts:
            assert_same_bits(part.diffuse(), diffuse[part.rows])
            assert_same_bits(part.shade(-probe), want[part.rows])
            run = part[3:50]
            assert_same_bits(run.shade(-probe), want[run.rows])
