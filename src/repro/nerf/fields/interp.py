"""N-linear interpolation index/weight computation on regular grids.

The Indexing stage (I) of every NeRF model boils down to these routines:
given normalised coordinates, find the enclosing cell, the ids of its corner
vertices, and the interpolation weights.  They are shared by the dense voxel
grid (trilinear), the hash-grid levels (trilinear on a virtual grid), and the
factorised tensor (bilinear planes + linear vectors).

These are measured hot paths (``nerf.interpolate_s`` in the end-to-end
benchmark): the per-resolution corner tables and flat per-corner vertex
offsets are precomputed once and reused, so a setup call is a handful of
fused array operations instead of flattening an (N, corners, D) index
lattice.  The Gathering stage (G) has one kernel, :func:`accumulate_gather`,
for dense grids and for hashed hash-grid levels alike (the latter pass their
vertex id -> slot table); it accumulates corner by corner over L2-sized
tiles of samples.  Results are bit-identical to the predecessors kept in
``tests/reference_kernels.py`` (vertex-id flattening is integer-linear, so
``flatten(cell + corner) == flatten(cell) + flatten(corner)`` exactly).
"""

from __future__ import annotations

import numpy as np

__all__ = ["trilinear_setup", "bilinear_setup", "linear_setup",
           "trilinear_gather", "accumulate_gather", "flatten_index"]

# Corner lattices in the fixed ascending order every consumer assumes:
# axis 0 is the slowest-varying bit, matching the original list-comprehension
# construction [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)].
_CORNERS3 = np.array([[i, j, k]
                      for i in (0, 1) for j in (0, 1) for k in (0, 1)])
_CORNERS2 = np.array([[i, j] for i in (0, 1) for j in (0, 1)])

# Per-resolution setup tables: cell shape -> (cells_float, cells_minus_1,
# vertex_shape, per-corner flat vertex offsets).  A process touches only a
# handful of grid resolutions (field scales x hash levels), so the cache is
# effectively constant-size.
_TABLES: dict = {}

# Samples per tile of :func:`accumulate_gather`: two (4096, 16) float64
# blocks (result slice + gathered corner) are 1 MB, resident in L2.
_TILE_ROWS = 4096


def flatten_index(indices: np.ndarray, shape: tuple) -> np.ndarray:
    """Row-major flattening of multi-dimensional integer indices.

    ``indices`` has shape (..., D) matching ``len(shape) == D``.
    """
    indices = np.asarray(indices)
    out = np.zeros(indices.shape[:-1], dtype=np.int64)
    for axis, extent in enumerate(shape):
        out = out * int(extent) + indices[..., axis].astype(np.int64)
    return out


def _setup_tables(cell_shape: tuple, corners: np.ndarray) -> tuple:
    """Cached per-resolution constants for :func:`trilinear_setup` kin."""
    key = cell_shape
    cached = _TABLES.get(key)
    if cached is None:
        vertex_shape = tuple(c + 1 for c in cell_shape)
        cached = (
            np.asarray(cell_shape, dtype=float),
            np.asarray(cell_shape, dtype=np.int64) - 1,
            vertex_shape,
            flatten_index(corners, vertex_shape),  # (V,) corner offsets
        )
        _TABLES[key] = cached
    return cached


def _cell_and_frac(coords01: np.ndarray, cells_float: np.ndarray,
                   cells_minus_1: np.ndarray, assume_clipped: bool
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Split [0, 1] coordinates into integer cell index and fraction.

    ``assume_clipped`` skips the redundant clip for callers (the fields'
    ``normalized_coords``) that already clipped — clipping is idempotent,
    so results are unchanged either way.  ``scaled`` is non-negative after
    clipping, so the integer cast truncates exactly like the floor the
    predecessor applied.
    """
    if not assume_clipped:
        coords01 = np.clip(coords01, 0.0, 1.0)
    scaled = coords01 * cells_float
    cell = np.minimum(scaled.astype(np.int64), cells_minus_1)
    frac = scaled - cell
    return cell, frac


def _nlinear_setup(coords01: np.ndarray, resolution, corners: np.ndarray,
                   assume_clipped: bool
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared tri/bilinear setup over a precomputed corner lattice."""
    dim = corners.shape[1]
    coords01 = np.atleast_2d(np.asarray(coords01, dtype=float))
    cells = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (dim,))
    cell_shape = tuple(int(c) for c in cells)
    cells_float, cells_minus_1, vertex_shape, corner_offsets = _setup_tables(
        cell_shape, corners)

    cell, frac = _cell_and_frac(coords01, cells_float, cells_minus_1,
                                assume_clipped)
    cell_ids = flatten_index(cell, cell_shape)
    # flatten_index is linear in its integer argument, so the corner sum
    # can move outside the flattening: one (N,) base + (V,) offsets.
    vertex_ids = flatten_index(cell, vertex_shape)[:, None] \
        + corner_offsets[None, :]

    w = np.stack([1.0 - frac, frac], axis=-1)  # (N, D, 2)
    weights = w[:, 0, corners[:, 0]]
    for axis in range(1, dim):
        weights = weights * w[:, axis, corners[:, axis]]
    return cell_ids, vertex_ids, weights


def trilinear_setup(coords01: np.ndarray, resolution,
                    assume_clipped: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trilinear cell/vertex/weight computation.

    Parameters
    ----------
    coords01:
        (N, 3) coordinates in [0, 1]^3.
    resolution:
        Cells per axis (scalar or length-3); the vertex grid has one more
        point per axis.
    assume_clipped:
        Skip the defensive clip into [0, 1] (callers that already clipped
        pass True; results are identical either way).

    Returns
    -------
    (cell_ids, vertex_ids, weights):
        ``cell_ids`` (N,) flat ids into the cell grid; ``vertex_ids`` (N, 8)
        flat ids into the vertex grid; ``weights`` (N, 8) summing to 1.
    """
    return _nlinear_setup(coords01, resolution, _CORNERS3, assume_clipped)


def trilinear_gather(coords01: np.ndarray, resolution,
                     assume_clipped: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Corner-major trilinear setup for accumulation-style gathers.

    Returns ``(base_ids, corner_offsets, (one_minus_frac, frac))`` where
    ``base_ids`` (N,) are flat *vertex-grid* ids of each sample's low
    corner, ``corner_offsets`` (8,) are the per-corner flat deltas, and
    the weight factors are the per-axis (N, 3) lerp endpoints.  Corner
    ``k``'s vertex ids are ``base_ids + corner_offsets[k]`` (contiguous,
    so the feature gather takes numpy's fast path) and its weight is the
    product of one factor per axis, in axis order — the same values, in
    the same order, as column ``k`` of :func:`trilinear_setup`'s weights.
    """
    coords01 = np.atleast_2d(np.asarray(coords01, dtype=float))
    cells = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (3,))
    cell_shape = tuple(int(c) for c in cells)
    cells_float, cells_minus_1, vertex_shape, corner_offsets = _setup_tables(
        cell_shape, _CORNERS3)
    cell, frac = _cell_and_frac(coords01, cells_float, cells_minus_1,
                                assume_clipped)
    base_ids = flatten_index(cell, vertex_shape)
    return base_ids, corner_offsets, (1.0 - frac, frac)


def accumulate_gather(table: np.ndarray, base_ids: np.ndarray,
                      corner_offsets: np.ndarray, weight_factors: tuple,
                      slots: np.ndarray | None = None) -> np.ndarray:
    """Weighted corner-feature sum without the (N, V, F) intermediate.

    ``table`` is (entries, F); the result is ``sum_k table[base + off_k]
    * w_k`` accumulated in ascending corner order — bit-identical to the
    einsum over a materialised (N, V, F) gather (same multiply, same
    addition order), with V times less peak memory and contiguous index
    vectors throughout.  ``slots`` (vertex id -> table row, a hashed
    hash-grid level's lookup table) redirects each corner's vertex ids
    before the feature gather; dense grids pass ``None``.

    Samples are processed in tiles of ``_TILE_ROWS`` so a corner's
    gather / scale / add passes run over cache-resident blocks; every
    sample still sees the same operations in the same corner order.
    """
    corners = _CORNERS3 if corner_offsets.shape[0] == 8 else _CORNERS2
    num_corners, dim = corners.shape
    count = base_ids.shape[0]
    total = np.empty((count, table.shape[1]), dtype=table.dtype)
    # Tile-sized scratch reused across tiles and corners: per-corner
    # vertex ids, the gathered feature block, and the weight product.
    # All are consumed within the iteration (the accumulator is the
    # result slice), so reuse never aliases the result.
    rows = min(count, _TILE_ROWS)
    ids_scratch = np.empty(rows, dtype=base_ids.dtype)
    gathered_scratch = np.empty((rows, table.shape[1]), dtype=table.dtype)
    weight_scratch = np.empty(rows)
    for start in range(0, count, _TILE_ROWS):
        tile = slice(start, min(start + _TILE_ROWS, count))
        out = total[tile]
        size = out.shape[0]
        ids, gathered, weight = (ids_scratch[:size], gathered_scratch[:size],
                                 weight_scratch[:size])
        factors = [factor[tile] for factor in weight_factors]
        for k in range(num_corners):
            np.multiply(factors[corners[k, 0]][:, 0],
                        factors[corners[k, 1]][:, 1], out=weight)
            for axis in range(2, dim):
                weight *= factors[corners[k, axis]][:, axis]
            np.add(base_ids[tile], corner_offsets[k], out=ids)
            # Ids are valid by construction (vertex ids, then table
            # rows), so mode="clip" never clips — it just selects take's
            # fast no-bounds-check path.
            table_rows = (ids if slots is None
                          else np.take(slots, ids, mode="clip"))
            # Corner 0 gathers straight into the result; later corners
            # go through the scratch block and are added on.
            target = out if k == 0 else gathered
            np.take(table, table_rows, axis=0, out=target, mode="clip")
            target *= weight[:, None]
            if k:
                out += gathered
    return total


def bilinear_setup(coords01: np.ndarray, resolution,
                   assume_clipped: bool = False
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear analogue of :func:`trilinear_setup` on a 2-D grid.

    ``coords01`` is (N, 2); returns 4 vertices per sample.
    """
    return _nlinear_setup(coords01, resolution, _CORNERS2, assume_clipped)


def linear_setup(coords01: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear interpolation on a 1-D grid; 2 vertices per sample."""
    coords01 = np.asarray(coords01, dtype=float).reshape(-1)
    cells = float(resolution)
    scaled = np.clip(coords01, 0.0, 1.0) * cells
    cell = np.minimum(np.floor(scaled).astype(np.int64), int(resolution) - 1)
    frac = scaled - cell

    cell_ids = cell.copy()
    vertex_ids = np.stack([cell, cell + 1], axis=-1)
    weights = np.stack([1.0 - frac, frac], axis=-1)
    return cell_ids, vertex_ids, weights
