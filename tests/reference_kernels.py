"""Scalar/unfused predecessors of vectorized hot-path kernels.

When a hot path is rewritten for speed, its previous implementation moves
here *verbatim* (modulo plumbing: methods become functions taking the
object) and stays as an equality oracle: ``tests/perf/test_equivalence.py``,
``tests/nerf/test_sampling.py`` and ``tests/nerf/test_renderer.py`` assert each optimized kernel is
**bit-identical** to its predecessor on representative inputs — the
contract that lets the golden suite stay byte-stable across perf work.

It sits beside ``tests/conftest.py`` (whose directory pytest puts on
``sys.path``), so tests import it as ``reference_kernels``; nothing under
``src/`` does.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rays import intersect_aabb
from repro.nerf.encoding import sh_basis_deg1
from repro.nerf.fields.hash_grid import _hash_vertices
from repro.nerf.fields.interp import flatten_index, trilinear_setup
from repro.nerf.renderer import NeRFRenderer, RenderOutput, RenderStats
from repro.nerf.sampling import OccupancyGrid, RaySamples, UniformSampler
from repro.nerf.volume_render import composite

__all__ = [
    "occupied_reference", "sample_reference", "trilinear_setup_reference",
    "bilinear_setup_reference", "interpolate_voxel_reference",
    "hashed_slots_reference", "interpolate_hash_reference",
    "decode_reference",
    "depth_to_points_reference", "rays_for_pixels_reference",
    "generate_rays_reference", "ReferenceSampler", "ReferenceField",
    "reference_renderer", "render_rays_reference",
]


# -- occupancy lookup (pre: per-point 3-D fancy indexing) ---------------------

def occupied_reference(grid: OccupancyGrid, points: np.ndarray) -> np.ndarray:
    """Boolean occupancy lookup via per-axis index triplets.

    Predecessor of :meth:`OccupancyGrid.occupied`, which now precomputes
    a flattened mask + integer strides at construction.
    """
    lo, hi = grid.bounds
    res = grid.occupancy.shape[0]
    coords = (np.asarray(points, dtype=float) - lo) / (hi - lo)
    idx = np.clip((coords * res).astype(np.int64), 0, res - 1)
    return grid.occupancy[idx[:, 0], idx[:, 1], idx[:, 2]]


# -- stratified sampling (pre: repeat-then-mask) ------------------------------

def sample_reference(sampler: UniformSampler, origins: np.ndarray,
                     directions: np.ndarray, bounds: tuple) -> RaySamples:
    """Predecessor of :meth:`UniformSampler.sample`.

    Materialises per-sample directions/deltas/ray ids for *every*
    ray-sample pair with ``np.repeat`` and only then applies the keep
    mask; the optimized version derives them from the kept indices.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    num_rays = origins.shape[0]
    lo, hi = bounds

    t_near, t_far, hit = intersect_aabb(origins, directions, lo, hi,
                                        near=1e-4)
    spans = np.where(hit, t_far - t_near, 0.0)
    steps = np.arange(sampler.num_samples)
    offsets = np.full((num_rays, sampler.num_samples), 0.5)
    t = (t_near[:, None]
         + (steps[None, :] + offsets) / sampler.num_samples * spans[:, None])
    delta = spans / sampler.num_samples

    positions = origins[:, None, :] + t[..., None] * directions[:, None, :]
    keep = np.repeat(hit[:, None], sampler.num_samples, axis=1)
    if sampler.occupancy is not None:
        occ = occupied_reference(sampler.occupancy, positions.reshape(-1, 3))
        keep &= occ.reshape(num_rays, sampler.num_samples)

    flat_keep = keep.reshape(-1)
    ray_index = np.repeat(np.arange(num_rays), sampler.num_samples)[flat_keep]
    return RaySamples(
        positions=positions.reshape(-1, 3)[flat_keep],
        directions=np.repeat(directions, sampler.num_samples,
                             axis=0)[flat_keep],
        t_values=t.reshape(-1)[flat_keep],
        deltas=np.repeat(delta, sampler.num_samples)[flat_keep],
        ray_index=ray_index,
        num_rays=num_rays,
    )


# -- N-linear setup (pre: per-call corner tables, 3-D flatten) ----------------

def trilinear_setup_reference(coords01: np.ndarray, resolution
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predecessor of :func:`repro.nerf.fields.interp.trilinear_setup`.

    Rebuilds the corner table per call and flattens the (N, 8, 3)
    vertex lattice directly; the optimized version adds precomputed
    per-corner flat offsets to the base vertex id.
    """
    coords01 = np.atleast_2d(np.asarray(coords01, dtype=float))
    cells = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (3,))
    scaled = np.clip(coords01, 0.0, 1.0) * cells.astype(float)
    cell = np.minimum(np.floor(scaled).astype(np.int64), cells - 1)
    frac = scaled - cell

    cell_shape = tuple(int(c) for c in cells)
    vertex_shape = tuple(int(c) + 1 for c in cells)
    cell_ids = flatten_index(cell, cell_shape)

    corners = np.array([[i, j, k]
                        for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    vertex_multi = cell[:, None, :] + corners[None, :, :]
    vertex_ids = flatten_index(vertex_multi, vertex_shape)

    w = np.stack([1.0 - frac, frac], axis=-1)  # (N, 3, 2)
    weights = (w[:, 0, corners[:, 0]] * w[:, 1, corners[:, 1]]
               * w[:, 2, corners[:, 2]])
    return cell_ids, vertex_ids, weights


def bilinear_setup_reference(coords01: np.ndarray, resolution
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predecessor of :func:`repro.nerf.fields.interp.bilinear_setup`."""
    coords01 = np.atleast_2d(np.asarray(coords01, dtype=float))
    cells = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (2,))
    scaled = np.clip(coords01, 0.0, 1.0) * cells.astype(float)
    cell = np.minimum(np.floor(scaled).astype(np.int64), cells - 1)
    frac = scaled - cell

    cell_shape = tuple(int(c) for c in cells)
    vertex_shape = tuple(int(c) + 1 for c in cells)
    cell_ids = flatten_index(cell, cell_shape)

    corners = np.array([[i, j] for i in (0, 1) for j in (0, 1)])
    vertex_multi = cell[:, None, :] + corners[None, :, :]
    vertex_ids = flatten_index(vertex_multi, vertex_shape)

    w = np.stack([1.0 - frac, frac], axis=-1)
    weights = w[:, 0, corners[:, 0]] * w[:, 1, corners[:, 1]]
    return cell_ids, vertex_ids, weights


# -- feature gathering (pre: materialised (N, 8, F) gather + einsum) ----------

def interpolate_voxel_reference(field, points: np.ndarray) -> np.ndarray:
    """Predecessor of :meth:`VoxelGridField.interpolate`.

    Gathers the full (N, 8, F) corner-feature block before reducing it
    with one einsum; the optimized version accumulates corner-by-corner
    in the same (ascending) order, never materialising the block.
    """
    coords = field.normalized_coords(points)
    _, vertex_ids, weights = trilinear_setup_reference(coords,
                                                       field.resolution)
    gathered = field.vertex_features[vertex_ids]  # (N, 8, F)
    return np.einsum("nvf,nv->nf", gathered, weights)


def hashed_slots_reference(level, vertex_ids: np.ndarray) -> np.ndarray:
    """Predecessor of a hashed level's ``slot_of_vertex`` lookup.

    Reconstructs integer vertex coordinates from the flat ids with
    div/mods and hashes them, every query; the level now does that once
    for every vertex of its grid at construction.
    """
    side = level.resolution + 1
    vx = vertex_ids // (side * side)
    rem = vertex_ids % (side * side)
    vy = rem // side
    vz = rem % side
    multi = np.stack([vx, vy, vz], axis=-1)
    return _hash_vertices(multi, level.table_size)


def interpolate_hash_reference(field, points: np.ndarray) -> np.ndarray:
    """Predecessor of :meth:`HashGridField.interpolate` (per-level einsum)."""
    coords = field.normalized_coords(points)
    total = None
    for level in field.levels:
        _, slots, weights = trilinear_setup(coords, level.resolution,
                                            assume_clipped=True)
        if not level.dense:
            slots = hashed_slots_reference(level, slots)
        part = np.einsum("nvf,nv->nf", level.table[slots], weights)
        total = part if total is None else total + part
    return total


# -- feature computation (pre: run the identity-constructed MLP) --------------

def decode_reference(decoder, features: np.ndarray, view_dirs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor of :meth:`SHDecoder.decode`: full MLP forward pass.

    The decoder's MLP is built by ``identity_affine_mlp`` from 0/±1
    weights, so its output equals the core feature channels *exactly*
    (every dot product reduces to at most two nonzero terms); the
    optimized decode therefore skips the matmuls.  This reference runs
    them, which is what the equivalence test leans on.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    view_dirs = np.atleast_2d(np.asarray(view_dirs, dtype=float))
    sh = sh_basis_deg1(view_dirs)
    core = decoder.mlp(np.concatenate([features, sh], axis=-1))

    logit = np.clip(core[:, 0], -40.0, 40.0)
    sigma = decoder.max_density / (1.0 + np.exp(-logit))
    diffuse = core[:, 1:4]
    coeffs = core[:, 4:13].reshape(-1, 3, 3)
    view_basis = sh[:, 1:4]
    rgb = np.clip(diffuse + np.einsum("ncb,nb->nc", coeffs, view_basis),
                  0.0, 1.0)
    return sigma, rgb


# -- geometry (pre: rebuild pixel lattices every call) ------------------------

def depth_to_points_reference(depth: np.ndarray, intrinsics) -> np.ndarray:
    """Predecessor of :func:`repro.geometry.pointcloud.depth_to_points`.

    Rebuilds the meshgrid and normalised pixel lattice on every call;
    the optimized version caches the per-intrinsics lattice.
    """
    depth = np.asarray(depth, dtype=float)
    height, width = depth.shape
    us = np.arange(width, dtype=float) + 0.5
    vs = np.arange(height, dtype=float) + 0.5
    u, v = np.meshgrid(us, vs)
    x = (u - intrinsics.cx) / intrinsics.fx * depth
    y = (v - intrinsics.cy) / intrinsics.fy * depth
    points = np.stack([x, y, depth], axis=-1)
    return points.reshape(-1, 3)


def rays_for_pixels_reference(camera, u: np.ndarray, v: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor of :meth:`PinholeCamera.rays_for_pixels` (no caching)."""
    intr = camera.intrinsics
    x = (np.asarray(u, dtype=float) - intr.cx) / intr.fx
    y = (np.asarray(v, dtype=float) - intr.cy) / intr.fy
    dirs_cam = np.stack([x, y, np.ones_like(x)], axis=-1)
    rot = camera.c2w[:3, :3]
    dirs_world = dirs_cam @ rot.T
    dirs_world = dirs_world / np.linalg.norm(dirs_world, axis=-1,
                                             keepdims=True)
    origins = np.broadcast_to(camera.position, dirs_world.shape).copy()
    return origins, dirs_world


def generate_rays_reference(camera) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor of :meth:`PinholeCamera.generate_rays`."""
    us = np.arange(camera.width, dtype=float) + 0.5
    vs = np.arange(camera.height, dtype=float) + 0.5
    u, v = np.meshgrid(us, vs)
    return rays_for_pixels_reference(camera, u, v)


# -- whole-pipeline baseline --------------------------------------------------

class ReferenceSampler(UniformSampler):
    """A :class:`UniformSampler` clone pinned to the reference kernels."""

    def __init__(self, sampler: UniformSampler):
        super().__init__(num_samples=sampler.num_samples,
                         occupancy=sampler.occupancy)

    def sample(self, origins: np.ndarray, directions: np.ndarray,
               bounds: tuple) -> RaySamples:
        """Route through :func:`sample_reference`."""
        return sample_reference(self, origins, directions, bounds)


class ReferenceField:
    """Proxy pinning a field's interpolate/decode to the reference kernels.

    Every other attribute (bounds, gather_plan, decoder, ...) delegates
    to the wrapped field, so the proxy drops into a
    :class:`~repro.nerf.renderer.NeRFRenderer` unchanged.
    """

    def __init__(self, field):
        self._field = field

    def __getattr__(self, name: str):
        return getattr(self._field, name)

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Reference gather for voxel/hash fields; delegate otherwise."""
        inner = self._field
        if hasattr(inner, "vertex_features"):  # dense voxel grid
            return interpolate_voxel_reference(inner, points)
        if hasattr(inner, "levels"):  # multi-resolution hash grid
            return interpolate_hash_reference(inner, points)
        return inner.interpolate(points)

    def decode(self, features: np.ndarray, view_dirs: np.ndarray):
        """Reference decode: run the identity-constructed MLP for real."""
        return decode_reference(self._field.decoder, features, view_dirs)


def reference_renderer(renderer: NeRFRenderer) -> NeRFRenderer:
    """A renderer equivalent to ``renderer`` but on the reference kernels.

    Same field data, same sampler configuration, same outputs
    (bit-identical), but every hot kernel takes its pre-optimization path.
    """
    return NeRFRenderer(ReferenceField(renderer.field),
                        ReferenceSampler(renderer.sampler),
                        background=renderer.background,
                        chunk_size=renderer.chunk_size,
                        opacity_threshold=renderer.opacity_threshold)


# -- solo ray rendering (pre: its own chunk loop beside render_ray_batch) ------

def render_rays_reference(renderer: NeRFRenderer, origins: np.ndarray,
                          directions: np.ndarray,
                          record_gather: bool = False) -> RenderOutput:
    """``render_rays`` as a loop of its own: one chunk at a time, sampled,
    gathered (plan-counted with ``record_gather``), decoded, composited."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    num_rays = origins.shape[0]

    rgb = np.zeros((num_rays, 3))
    depth = np.full(num_rays, np.inf)
    opacity = np.zeros(num_rays)
    stats = RenderStats(num_rays=num_rays)
    groups = []

    for start in range(0, num_rays, renderer.chunk_size):
        stop = min(start + renderer.chunk_size, num_rays)
        samples = renderer.sampler.sample(origins[start:stop],
                                          directions[start:stop],
                                          renderer.field.bounds)
        out = _render_samples_reference(renderer, samples, record_gather)
        rgb[start:stop] = out.rgb
        depth[start:stop] = out.depth_t
        opacity[start:stop] = out.opacity
        stats = stats.merge(out.stats)
        groups.extend(out.gather_groups)

    stats.num_rays = num_rays
    return RenderOutput(rgb=rgb, depth_t=depth, opacity=opacity,
                        stats=stats, gather_groups=groups)


def _render_samples_reference(renderer: NeRFRenderer, samples: RaySamples,
                              record_gather: bool) -> RenderOutput:
    stats = RenderStats(num_samples=len(samples))
    groups = []
    if len(samples) == 0:
        zeros = np.zeros(samples.num_rays)
        return RenderOutput(rgb=np.zeros((samples.num_rays, 3)),
                            depth_t=np.full(samples.num_rays, np.inf),
                            opacity=zeros, stats=stats)

    fld = renderer.field
    if record_gather:
        groups = fld.gather_plan(samples.positions)
        for group in groups:
            accesses = group.vertices_per_sample * group.num_samples
            stats.gather_vertex_accesses += accesses
            stats.gather_bytes += accesses * group.entry_bytes
    else:
        accesses, nbytes = fld.gather_cost
        stats.gather_vertex_accesses += accesses * len(samples)
        stats.gather_bytes += nbytes * len(samples)

    features = fld.interpolate(samples.positions)
    sigma, rgb_s = fld.decode(features, samples.directions)
    stats.mlp_macs = len(samples) * fld.decoder.macs_per_sample()

    result = composite(sigma, rgb_s, samples.t_values, samples.deltas,
                       samples.ray_index, samples.num_rays)
    return RenderOutput(rgb=result.rgb, depth_t=result.depth,
                        opacity=result.opacity, stats=stats,
                        gather_groups=groups)
