"""Multi-resolution hash-grid radiance field (Instant-NGP-style).

A pyramid of virtual voxel grids whose vertex features live in per-level
tables.  Coarse levels fit densely in their tables (slot = vertex id); fine
levels exceed the table size and are *hashed*, so distinct vertices collide —
the irregular-access behaviour that drives Instant-NGP's bank-conflict and
cache numbers in the paper (Figs. 4-6), and the reason the fully-streaming
dataflow reverts to pixel-centric order on those levels (Sec. IV-A).

The hash of every vertex of a hashed level is computed once, at
construction, into a dense vertex id -> slot table; queries on dense and
hashed levels then run the same gather kernel
(:func:`~repro.nerf.fields.interp.accumulate_gather`), the hashed ones
with one extra lookup per corner.

Features are baked coarse-to-fine as residuals against a reference dense
grid, then summed across levels at query time.
"""

from __future__ import annotations

import numpy as np

from .base import GatherGroup, RadianceField
from .decode import SHDecoder
from .interp import accumulate_gather, trilinear_gather, trilinear_setup
from .voxel_grid import VoxelGridField

__all__ = ["HashGridField"]

_HASH_PRIMES = np.array([1, 2654435761, 805459861], dtype=np.uint64)


def _hash_vertices(vertex_multi: np.ndarray, table_size: int) -> np.ndarray:
    """Instant-NGP spatial hash of integer vertex coordinates."""
    v = vertex_multi.astype(np.uint64)
    h = v[..., 0] * _HASH_PRIMES[0]
    h ^= v[..., 1] * _HASH_PRIMES[1]
    h ^= v[..., 2] * _HASH_PRIMES[2]
    return (h % np.uint64(table_size)).astype(np.int64)


class _Level:
    """One resolution level: a virtual grid plus its feature table.

    ``slot_of_vertex`` maps every flat vertex id of a hashed level to its
    table row (``None`` on dense levels, where the vertex id is the row),
    so a query never re-derives integer vertex coordinates or re-hashes.
    """

    def __init__(self, resolution: int, table_size: int, feature_dim: int):
        self.resolution = int(resolution)
        self.table_size = int(table_size)
        side = self.resolution + 1
        self.dense = side ** 3 <= self.table_size
        self.num_entries = side ** 3 if self.dense else self.table_size
        self.table = np.zeros((self.num_entries, feature_dim))
        self.slot_of_vertex = None if self.dense else _hash_vertices(
            np.indices((side,) * 3).reshape(3, -1).T, self.table_size)

    def slots_for(self, coords01: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell_ids, slot_ids (N, 8), weights) for normalised coordinates."""
        cell_ids, vertex_ids, weights = trilinear_setup(coords01,
                                                        self.resolution,
                                                        assume_clipped=True)
        if not self.dense:
            vertex_ids = self.slot_of_vertex[vertex_ids]
        return cell_ids, vertex_ids, weights

    def interpolate(self, coords01: np.ndarray) -> np.ndarray:
        """Level features for normalised coords (corner-accumulated gather).

        Same ascending-corner addition order as the einsum predecessor,
        so the sum is bit-identical without the (N, 8, F) intermediate.
        Dense and hashed levels share the kernel: per-corner offsets are
        added to a base vertex id, and a hashed level's ids then go
        through ``slot_of_vertex``.
        """
        base_ids, offsets, factors = trilinear_gather(
            coords01, self.resolution, assume_clipped=True)
        return accumulate_gather(self.table, base_ids, offsets, factors,
                                 slots=self.slot_of_vertex)


class HashGridField(RadianceField):
    """Summed multi-resolution hash grid with shared SH decode."""

    name = "instant_ngp"

    def __init__(self, levels: list, bounds: tuple, decoder: SHDecoder):
        if not levels:
            raise ValueError("need at least one level")
        self.levels = levels
        self._bounds = (np.asarray(bounds[0], dtype=float),
                        np.asarray(bounds[1], dtype=float))
        self.decoder = decoder

    # -- construction --------------------------------------------------------

    @classmethod
    def bake(
        cls,
        scene,
        reference: VoxelGridField,
        num_levels: int,
        finest_resolution: int,
        table_size: int,
    ) -> "HashGridField":
        """Bake residual features per level against a dense reference grid.

        ``reference`` (a baked :class:`VoxelGridField`) provides the target
        features, their width and the density scale.  Level resolutions
        grow geometrically from 8 to ``finest_resolution``.
        Each level stores the residual between the target and what the
        coarser levels already reconstruct, so the level sum approximates
        the target; hash collisions on fine levels average their residuals.
        """
        feature_dim = reference.feature_dim
        if num_levels == 1:
            resolutions = [finest_resolution]
        else:
            ratio = (finest_resolution / 8) ** (1.0 / (num_levels - 1))
            resolutions = [int(round(8 * ratio**i))
                           for i in range(num_levels)]

        levels = []
        lo, hi = scene.bounds
        for resolution in resolutions:
            level = _Level(resolution, table_size, feature_dim)
            side = resolution + 1
            axes = [np.linspace(0.0, 1.0, side)] * 3
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            coords01 = grid.reshape(-1, 3)
            positions = lo + coords01 * (hi - lo)

            target = reference.interpolate(positions)
            recon = np.zeros_like(target)
            for prev in levels:
                recon += prev.interpolate(coords01)
            residual = target - recon

            if level.dense:
                level.table[:] = residual
            else:
                slots = level.slot_of_vertex
                # Collision resolution: importance-weighted average.  Trained
                # hash grids resolve collisions implicitly — empty-space
                # vertices receive near-zero gradients, so occupied vertices
                # dominate their slot.  We reproduce that with weights
                # proportional to the reference density at each vertex.
                occupancy = 1.0 / (1.0 + np.exp(-np.clip(target[:, 0],
                                                         -40.0, 40.0)))
                weight = 0.01 + occupancy
                denom = np.bincount(slots, weights=weight,
                                    minlength=table_size)
                denom = np.where(denom == 0.0, 1.0, denom)
                for channel in range(feature_dim):
                    sums = np.bincount(slots,
                                       weights=residual[:, channel] * weight,
                                       minlength=table_size)
                    level.table[:, channel] = sums / denom
            levels.append(level)
        decoder = SHDecoder(feature_dim=feature_dim,
                            max_density=reference.decoder.max_density)
        return cls(levels, scene.bounds, decoder=decoder)

    # -- RadianceField API ------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        return self.levels[0].table.shape[1]

    @property
    def bounds(self) -> tuple:
        return self._bounds

    @property
    def entry_bytes(self) -> int:
        return self.feature_dim * self.bytes_per_channel

    @property
    def model_size_bytes(self) -> int:
        entries = sum(level.num_entries for level in self.levels)
        return entries * self.entry_bytes + self.decoder.weight_bytes()

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        coords = self.normalized_coords(points)
        total = self.levels[0].interpolate(coords)
        for level in self.levels[1:]:
            total += level.interpolate(coords)
        return total

    def gather_plan(self, points: np.ndarray) -> list:
        coords = self.normalized_coords(points)
        groups = []
        base_address = 0
        for i, level in enumerate(self.levels):
            cell_ids, slots, weights = level.slots_for(coords)
            groups.append(GatherGroup(
                name=f"level{i}_r{level.resolution}" + ("" if level.dense else "_hashed"),
                grid_shape=(level.resolution,) * 3,
                cell_ids=cell_ids,
                vertex_ids=slots,
                weights=weights,
                entry_bytes=self.entry_bytes,
                num_entries=level.num_entries,
                base_address=base_address,
                streamable=level.dense,
            ))
            base_address += level.num_entries * self.entry_bytes
        return groups

    def decode(self, features: np.ndarray, view_dirs: np.ndarray):
        return self.decoder.decode(features, view_dirs)
