"""Radiance-field protocol shared by the three NeRF model families.

Every field exposes the same three operations the paper's pipeline names:

* Indexing (I): map sample positions to cells — surfaced via
  :meth:`RadianceField.gather_plan`, which also exposes the exact vertex
  addresses touched (the raw material for all memory experiments).
* Feature Gathering (G): :meth:`RadianceField.interpolate` — fetch vertex
  features and interpolate them per sample.
* Feature Computation (F): :meth:`RadianceField.decode` — run the MLP and
  spherical-harmonics decode to density + view-dependent radiance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GatherGroup", "RadianceField"]


@dataclass
class GatherGroup:
    """Vertex accesses into one gather structure for a batch of samples.

    A dense voxel grid produces a single group; a multi-resolution hash grid
    produces one per level; a factorised tensor produces one per plane/vector
    factor.  The streaming scheduler, cache simulator, and SRAM bank model
    all consume this uniform record.
    """

    name: str
    grid_shape: tuple  # logical cell-grid dims (1-, 2- or 3-D)
    cell_ids: np.ndarray  # (N,) flat cell id per sample; -1 = outside
    vertex_ids: np.ndarray  # (N, V) flat storage index per gathered vertex
    weights: np.ndarray  # (N, V) interpolation weights
    entry_bytes: int  # bytes per stored feature entry
    num_entries: int  # entries in this group's storage
    base_address: int  # byte offset of the group's storage in DRAM
    streamable: bool  # False => paper's reversion rule applies (hashed levels)

    @property
    def vertices_per_sample(self) -> int:
        return self.vertex_ids.shape[1]

    @property
    def num_samples(self) -> int:
        return self.vertex_ids.shape[0]

    def vertex_addresses(self) -> np.ndarray:
        """Byte address in DRAM of every gathered vertex, shape (N, V)."""
        return self.base_address + self.vertex_ids.astype(np.int64) * self.entry_bytes


class RadianceField(ABC):
    """A renderable neural radiance field with traceable memory behaviour."""

    name: str = "field"
    bytes_per_channel: int = 2  # fp16 feature storage

    @property
    @abstractmethod
    def feature_dim(self) -> int:
        """Channels in the interpolated per-sample feature vector."""

    @property
    @abstractmethod
    def bounds(self) -> tuple:
        """(min, max) AABB of the field in world coordinates."""

    @property
    @abstractmethod
    def model_size_bytes(self) -> int:
        """Total size of feature storage + MLP weights."""

    @abstractmethod
    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Stage G: interpolated features for (N, 3) points -> (N, F)."""

    @abstractmethod
    def gather_plan(self, points: np.ndarray) -> list:
        """Stage I: list of :class:`GatherGroup` describing vertex accesses."""

    @abstractmethod
    def decode(self, features: np.ndarray, view_dirs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Stage F: features (N, F) + dirs (N, 3) -> (sigma (N,), rgb (N, 3))."""

    # -- shared convenience ----------------------------------------------------

    @cached_property
    def gather_cost(self) -> tuple[int, int]:
        """``(vertex accesses, bytes)`` the gather of one sample costs.

        A constant of the field: a sample reads the same number of vertices
        from every group wherever it lies, so a one-sample plan prices
        every sample.  Computed on first use, once per field.
        """
        corner = np.asarray(self.bounds[0], dtype=float)[None]
        groups = self.gather_plan(corner)
        return (sum(g.vertices_per_sample for g in groups),
                sum(g.vertices_per_sample * g.entry_bytes for g in groups))

    def query(self, points: np.ndarray, view_dirs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Full per-sample query: interpolate then decode."""
        features = self.interpolate(points)
        return self.decode(features, view_dirs)

    def normalized_coords(self, points: np.ndarray) -> np.ndarray:
        """Map world points into [0, 1]^3 field coordinates (clipped)."""
        lo, hi = self.bounds
        coords = (np.asarray(points, dtype=float) - lo) / (hi - lo)
        return np.clip(coords, 0.0, 1.0)
