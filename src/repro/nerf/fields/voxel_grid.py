"""Dense voxel-grid radiance field (DirectVoxGO-style).

Features live at the vertices of a regular 3-D lattice and are trilinearly
interpolated per ray sample — the simplest of the three representations the
paper evaluates, and the one whose feature storage dominates model size
(Fig. 2's large-model/fast corner).
"""

from __future__ import annotations

import numpy as np

from ..baking import bake_vertex_features, vertex_grid_positions
from .base import GatherGroup, RadianceField
from .decode import SHDecoder
from .interp import accumulate_gather, trilinear_gather, trilinear_setup

__all__ = ["VoxelGridField"]


class VoxelGridField(RadianceField):
    """Dense vertex-feature grid with trilinear gathering."""

    name = "directvoxgo"

    def __init__(self, vertex_features: np.ndarray, resolution: int,
                 bounds: tuple, decoder: SHDecoder):
        resolution = int(resolution)
        expected = (resolution + 1) ** 3
        vertex_features = np.asarray(vertex_features, dtype=float)
        if vertex_features.shape[0] != expected:
            raise ValueError(
                f"expected {expected} vertices for resolution {resolution}, "
                f"got {vertex_features.shape[0]}")
        self.vertex_features = vertex_features
        self.resolution = resolution
        self._bounds = (np.asarray(bounds[0], dtype=float),
                        np.asarray(bounds[1], dtype=float))
        self.decoder = decoder

    # -- construction --------------------------------------------------------

    @classmethod
    def bake(cls, scene, resolution: int, feature_dim: int,
             max_density: float, **bake_kwargs) -> "VoxelGridField":
        """Bake a field from an analytic scene at the given grid resolution."""
        positions = vertex_grid_positions(scene.bounds, resolution)
        lo, hi = scene.bounds
        voxel = float((hi - lo).max()) / resolution
        bake_kwargs.setdefault("shell_width", 2.5 * voxel)
        bake_kwargs.setdefault("surface_bias", 0.3 * voxel)
        # Density transition ~1/6 voxel wide: sharp at any grid resolution.
        bake_kwargs.setdefault("density_sharpness", 6.0 / voxel)
        features = bake_vertex_features(scene, positions, feature_dim,
                                        **bake_kwargs)
        return cls(features, resolution, scene.bounds,
                   decoder=SHDecoder(feature_dim=feature_dim,
                                     max_density=max_density))

    # -- RadianceField API ------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        return self.vertex_features.shape[1]

    @property
    def bounds(self) -> tuple:
        return self._bounds

    @property
    def entry_bytes(self) -> int:
        return self.feature_dim * self.bytes_per_channel

    @property
    def model_size_bytes(self) -> int:
        return (self.vertex_features.shape[0] * self.entry_bytes
                + self.decoder.weight_bytes())

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Trilinearly interpolated features for (N, 3) world points.

        Hot path: accumulates the eight corner gathers in ascending
        corner order instead of materialising the (N, 8, F) block the
        einsum predecessor reduced — same addition order, bit-identical
        result (locked by ``tests/perf/test_equivalence.py``), an order
        of magnitude less peak memory.
        """
        coords = self.normalized_coords(points)
        base_ids, offsets, factors = trilinear_gather(coords,
                                                      self.resolution,
                                                      assume_clipped=True)
        return accumulate_gather(self.vertex_features, base_ids, offsets,
                                 factors)

    def gather_plan(self, points: np.ndarray) -> list:
        """Single-group gather plan (dense grids stream perfectly)."""
        coords = self.normalized_coords(points)
        cell_ids, vertex_ids, weights = trilinear_setup(coords,
                                                        self.resolution,
                                                        assume_clipped=True)
        group = GatherGroup(
            name="grid",
            grid_shape=(self.resolution,) * 3,
            cell_ids=cell_ids,
            vertex_ids=vertex_ids,
            weights=weights,
            entry_bytes=self.entry_bytes,
            num_entries=self.vertex_features.shape[0],
            base_address=0,
            streamable=True,
        )
        return [group]

    def decode(self, features: np.ndarray, view_dirs: np.ndarray):
        return self.decoder.decode(features, view_dirs)
