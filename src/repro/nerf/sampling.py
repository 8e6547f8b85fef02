"""Ray sampling: stratified samples inside the field AABB + occupancy skipping.

The Indexing stage (I) begins here: every ray takes a fixed budget of samples
between its AABB entry and exit points.  An optional occupancy grid (built
from the baked density) culls samples in empty space, as DirectVoxGO and
Instant-NGP both do.

This is a measured hot path (``nerf.sample_s`` in the end-to-end benchmark),
so its cost is made to follow the rays and samples that survive:

* the occupancy grid knows the world box of its occupied cells (padded by a
  whole cell); the sampler culls rays against that box and against the field
  bounds *before* building any per-sample array;
* the (rays x samples) position lattice of the surviving rays is axis-major,
  ``(3, rays, samples)``, and the occupancy lookup works one coordinate
  column at a time, so every pass has a contiguous inner loop of
  ``num_samples`` elements instead of 3;
* per-sample directions, deltas and ray ids are gathers through the kept
  flat indices, never repeat-expanded arrays.

Every element goes through the same operations in the same order as in the
predecessors kept in ``tests/reference_kernels.py``, so results are
bit-identical (locked by ``tests/perf/test_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.rays import intersect_aabb

__all__ = ["RaySamples", "OccupancyGrid", "UniformSampler",
           "clear_sampling_scratch"]

# Slot-named scratch arenas for the sampler's large per-call temporaries
# (the (rays x samples) lattices).  Refreshing multi-megabyte temporaries
# every call costs more in page zeroing than the arithmetic that fills
# them; each slot instead grows to the largest size seen and is re-viewed
# per call.  Every value returned from this module is a fresh gather (a
# copy), never a scratch view, so reuse cannot alias results.  Like the
# rest of the simulator, this is single-threaded by design.
_SCRATCH: dict = {}


def _scratch(slot: str, shape: tuple, dtype) -> np.ndarray:
    """A ``shape``/``dtype`` view of the named slot's reusable arena."""
    dtype = np.dtype(dtype)
    count = 1
    for extent in shape:
        count *= int(extent)
    nbytes = count * dtype.itemsize
    arena = _SCRATCH.get(slot)
    if arena is None or arena.nbytes < nbytes:
        arena = _SCRATCH[slot] = np.empty(max(nbytes, 1), dtype=np.uint8)
    return arena[:nbytes].view(dtype).reshape(shape)


def clear_sampling_scratch() -> None:
    """Release the scratch arenas (tests / memory-pressure hook)."""
    _SCRATCH.clear()


@dataclass
class RaySamples:
    """Samples along a bundle of rays, flattened for batched field queries.

    ``ray_index`` maps each sample back to its ray; ``t_values`` are distances
    along the (unit-norm) ray directions; ``deltas`` are the spacing used for
    alpha compositing.
    """

    positions: np.ndarray  # (S, 3)
    directions: np.ndarray  # (S, 3) per-sample view dirs
    t_values: np.ndarray  # (S,)
    deltas: np.ndarray  # (S,)
    ray_index: np.ndarray  # (S,) int
    num_rays: int

    def __len__(self) -> int:
        return self.positions.shape[0]


class OccupancyGrid:
    """Binary occupancy over the field bounds for empty-space skipping.

    The cubic mask is raveled once at construction so point lookups are a
    single flat ``take`` instead of three-axis fancy indexing.
    ``occupied_box`` is the world AABB outside which no point can look up
    an occupied cell (``None`` when no cell is occupied).
    """

    def __init__(self, occupancy: np.ndarray, bounds: tuple):
        self.occupancy = np.asarray(occupancy, dtype=bool)
        if self.occupancy.ndim != 3 or len(set(self.occupancy.shape)) != 1:
            raise ValueError("occupancy mask must be 3-D and cubic, got "
                             f"shape {self.occupancy.shape}")
        self.bounds = (np.asarray(bounds[0], dtype=float),
                       np.asarray(bounds[1], dtype=float))
        self._flat = np.ascontiguousarray(self.occupancy).reshape(-1)
        self.occupied_box = self._occupied_box()

    def _occupied_box(self) -> tuple | None:
        """World AABB of the occupied cells, padded by one whole cell.

        The pad dwarfs any rounding in :meth:`occupied` or in the slab
        test, so a ray that misses the box has no sample in an occupied
        cell.  :meth:`occupied` clips outside points into the edge cells,
        so a side whose edge cells are occupied is unbounded.
        """
        cells = np.argwhere(self.occupancy)
        if cells.shape[0] == 0:
            return None
        res = self.occupancy.shape[0]
        lo, hi = self.bounds
        cell = (hi - lo) / res
        first, last = cells.min(axis=0), cells.max(axis=0)
        return (np.where(first == 0, -np.inf, lo + (first - 1) * cell),
                np.where(last == res - 1, np.inf, lo + (last + 2) * cell))

    @classmethod
    def from_field(cls, field, resolution: int = 32) -> "OccupancyGrid":
        """Probe the field's density on a lattice, threshold it and dilate
        it by one cell."""
        lo, hi = field.bounds
        axes = [np.linspace(lo[a], hi[a], resolution) for a in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        points = grid.reshape(-1, 3)
        features = field.interpolate(points)
        density = field.decoder.density(features).reshape((resolution,) * 3)
        occ = density > 0.05
        grown = occ.copy()
        grown[1:, :, :] |= occ[:-1, :, :]
        grown[:-1, :, :] |= occ[1:, :, :]
        grown[:, 1:, :] |= occ[:, :-1, :]
        grown[:, :-1, :] |= occ[:, 1:, :]
        grown[:, :, 1:] |= occ[:, :, :-1]
        grown[:, :, :-1] |= occ[:, :, 1:]
        return cls(grown, field.bounds)

    def occupied(self, points: np.ndarray) -> np.ndarray:
        """Boolean occupancy lookup for (N, 3) world points.

        Same arithmetic as the predecessor
        (``occupied_reference`` in ``tests/reference_kernels.py``) — normalise,
        scale, truncate, clip — one coordinate column at a time into
        (N,) scratch, then one flat gather from the precomputed mask.
        The sampler passes a transposed view of its axis-major lattice,
        whose columns are contiguous.
        """
        lo, hi = self.bounds
        extent = hi - lo
        res = self.occupancy.shape[0]
        points = np.asarray(points, dtype=float)
        count = points.shape[:1]
        coord = _scratch("occ.coord", count, np.float64)
        # int32 halves the index traffic; grid resolutions are tiny, and
        # the scaled coordinates of renderable points are far inside the
        # int32 range, so the truncation matches the int64 predecessor.
        idx = _scratch("occ.idx", count, np.int32)
        flat = _scratch("occ.flat", count, np.int32)
        for axis in range(3):
            np.subtract(points[:, axis], lo[axis], out=coord)
            coord /= extent[axis]
            coord *= res
            idx[...] = coord  # C-cast truncation, as astype did
            np.clip(idx, 0, res - 1, out=idx)
            if axis == 0:
                flat[...] = idx
            else:
                flat *= res
                flat += idx
        # flat ids are in range by construction (per-axis clip above), so
        # mode="clip" only selects take's no-bounds-check fast path.
        return np.take(self._flat, flat, mode="clip")

    @property
    def occupancy_rate(self) -> float:
        """Fraction of grid cells marked occupied."""
        return float(self.occupancy.mean())


class UniformSampler:
    """Stratified uniform sampling within the AABB, with optional occupancy cull.

    Samples sit at the centres of their strata, so renders are deterministic.
    """

    def __init__(self, num_samples: int = 96, occupancy: OccupancyGrid | None = None):
        self.num_samples = int(num_samples)
        self.occupancy = occupancy
        # Strata midpoints (steps + 0.5) / S, precomputed once per sampler.
        self._midpoints = ((np.arange(self.num_samples) + 0.5)
                           / self.num_samples)

    def _live_rays(self, origins: np.ndarray, directions: np.ndarray,
                   hit: np.ndarray) -> np.ndarray:
        """Row ids of the rays that can keep a sample.

        A ray must hit the field bounds and, with an occupancy grid, the
        grid's occupied box; every other ray's samples would all be
        dropped by the keep mask, so its lattice rows are never built.
        """
        if self.occupancy is not None:
            box = self.occupancy.occupied_box
            if box is None:
                return np.zeros(0, dtype=np.int64)
            hit = hit & intersect_aabb(origins, directions, *box)[2]
        return np.flatnonzero(hit)

    def sample(self, origins: np.ndarray, directions: np.ndarray,
               bounds: tuple) -> RaySamples:
        """Generate flattened samples for a bundle of rays.

        Bit-identical to the repeat-then-mask predecessor
        (``sample_reference`` in ``tests/reference_kernels.py``): the lattice is
        built for the live rays only (see :meth:`_live_rays`) with the
        predecessor's per-element arithmetic, and per-sample directions,
        deltas and ray ids are pure gathers through the kept indices.
        """
        origins = np.atleast_2d(np.asarray(origins, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        num_rays = origins.shape[0]
        num_samples = self.num_samples
        lo, hi = bounds

        t_near, t_far, hit = intersect_aabb(origins, directions, lo, hi,
                                            near=1e-4)
        rows = self._live_rays(origins, directions, hit)
        live_o = np.take(origins, rows, axis=0)
        live_d = np.take(directions, rows, axis=0)
        t_near = np.take(t_near, rows)
        spans = np.take(t_far, rows) - t_near
        # t_near + midpoint*spans and origins + t*d, accumulated into scratch
        # (addition is commutative, so summing into the product term gives
        # the same array with no fresh multi-megabyte temporaries).
        lattice = (rows.shape[0], num_samples)
        t = _scratch("sample.t", lattice, np.float64)
        np.multiply(self._midpoints[None, :], spans[:, None], out=t)
        t += t_near[:, None]
        delta = spans / num_samples

        positions = _scratch("sample.positions", (3,) + lattice, np.float64)
        for axis in range(3):
            np.multiply(t, live_d[:, axis, None], out=positions[axis])
            positions[axis] += live_o[:, axis, None]
        columns = positions.reshape(3, -1)
        if self.occupancy is not None:
            flat_idx = np.flatnonzero(self.occupancy.occupied(columns.T))
        else:
            flat_idx = np.arange(columns.shape[1])

        live_index = flat_idx // num_samples
        # All gathers below copy out of the scratch lattices (indices in
        # range by construction; mode="clip" is take's fast path).
        kept = np.empty((flat_idx.shape[0], 3))
        for axis in range(3):
            kept[:, axis] = np.take(columns[axis], flat_idx, mode="clip")
        return RaySamples(
            positions=kept,
            directions=np.take(live_d, live_index, axis=0, mode="clip"),
            t_values=np.take(t.reshape(-1), flat_idx, mode="clip"),
            deltas=np.take(delta, live_index, mode="clip"),
            ray_index=np.take(rows, live_index, mode="clip"),
            num_rays=num_rays,
        )
