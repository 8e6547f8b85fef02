"""Factorised-tensor radiance field (TensoRF-style VM decomposition).

The feature volume is approximated as a sum over three modes, each a set of
rank components pairing a 1-D *vector* factor along one axis with a 2-D
*plane* factor over the other two axes, plus a per-mode channel-mixing basis
matrix.  Gathering fetches 4 plane texels + 2 vector texels per sample per
mode — the distinct access pattern the paper covers with the "factorized
tensor" representation.

Factors are fitted greedily from a dense reference grid by per-mode SVD
(top singular vectors per mode, residual passed to the next mode).
"""

from __future__ import annotations

import numpy as np

from .base import GatherGroup, RadianceField
from .decode import SHDecoder
from .interp import bilinear_setup, linear_setup
from .voxel_grid import VoxelGridField

__all__ = ["TensorFactorField"]

# Mode m uses vector axis _VECTOR_AXIS[m] and plane axes _PLANE_AXES[m].
_VECTOR_AXIS = (0, 1, 2)
_PLANE_AXES = ((1, 2), (0, 2), (0, 1))


class _Mode:
    """One VM mode: rank vectors, rank planes, and the channel basis."""

    def __init__(self, vectors: np.ndarray, planes: np.ndarray,
                 basis: np.ndarray):
        self.vectors = vectors  # (rank, S)
        self.planes = planes  # (rank, S, S)
        self.basis = basis  # (rank, F)

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @property
    def side(self) -> int:
        return self.vectors.shape[1]


def _fit_mode(residual: np.ndarray, mode: int, rank: int) -> _Mode:
    """Greedy rank-``rank`` VM fit of one mode via SVD of the unfolding."""
    side = residual.shape[0]
    feature_dim = residual.shape[3]
    unfold = np.moveaxis(residual, mode, 0).reshape(side, -1)
    u, s, vt = np.linalg.svd(unfold, full_matrices=False)
    rank = min(rank, s.shape[0])

    vectors = np.zeros((rank, side))
    planes = np.zeros((rank, side, side))
    basis = np.zeros((rank, feature_dim))
    for r in range(rank):
        vectors[r] = u[:, r]
        w = (s[r] * vt[r]).reshape(side * side, feature_dim)
        # Constrain the co-factor to plane x channel-mix (TensoRF structure)
        # by a rank-1 SVD.
        pu, ps, pvt = np.linalg.svd(w, full_matrices=False)
        planes[r] = (pu[:, 0] * ps[0]).reshape(side, side)
        basis[r] = pvt[0]
    return _Mode(vectors, planes, basis)


def _mode_reconstruction(mode_idx: int, mode: _Mode, side: int,
                         feature_dim: int) -> np.ndarray:
    """Dense (S, S, S, F) reconstruction contributed by one mode."""
    outer = np.einsum("rx,ryz->rxyz", mode.vectors,
                      mode.planes.reshape(mode.rank, side, side))
    dense = np.einsum("rxyz,rf->xyzf", outer, mode.basis)
    # The einsum laid axes as (vector, plane0, plane1); restore world order.
    order = [_VECTOR_AXIS[mode_idx], *_PLANE_AXES[mode_idx]]
    inverse = np.argsort(order)
    return np.transpose(dense, (*inverse, 3))


class TensorFactorField(RadianceField):
    """Vector-matrix factorised feature volume with shared SH decode."""

    name = "tensorf"

    def __init__(self, modes: list, bounds: tuple,
                 decoder: SHDecoder | None = None, feature_dim: int = 16):
        if len(modes) != 3:
            raise ValueError("TensorFactorField needs exactly 3 modes")
        self.modes = modes
        self._bounds = (np.asarray(bounds[0], dtype=float),
                        np.asarray(bounds[1], dtype=float))
        self._feature_dim = feature_dim
        self.decoder = decoder or SHDecoder(feature_dim=feature_dim)

    # -- construction ------------------------------------------------------------

    @classmethod
    def bake(cls, scene, resolution: int = 64, rank_per_mode: int = 24,
             feature_dim: int = 16, reference: VoxelGridField | None = None
             ) -> "TensorFactorField":
        """Fit VM factors against a dense reference grid of ``resolution``."""
        if reference is None:
            reference = VoxelGridField.bake(scene, resolution=resolution,
                                            feature_dim=feature_dim)
        side = reference.resolution + 1
        dense = reference.vertex_features.reshape(side, side, side, feature_dim)

        residual = dense.astype(float).copy()
        modes = []
        for mode_idx in range(3):
            mode = _fit_mode(residual, _VECTOR_AXIS[mode_idx], rank_per_mode)
            modes.append(mode)
            residual = residual - _mode_reconstruction(mode_idx, mode, side,
                                                       feature_dim)
        decoder = SHDecoder(feature_dim=feature_dim,
                            max_density=reference.decoder.max_density)
        return cls(modes, scene.bounds, decoder=decoder,
                   feature_dim=feature_dim)

    # -- RadianceField API ----------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        return self._feature_dim

    @property
    def bounds(self) -> tuple:
        return self._bounds

    @property
    def rank(self) -> int:
        return self.modes[0].rank

    @property
    def plane_entry_bytes(self) -> int:
        return self.rank * self.bytes_per_channel

    @property
    def model_size_bytes(self) -> int:
        total = 0
        for mode in self.modes:
            total += mode.planes.size + mode.vectors.size + mode.basis.size
        return total * self.bytes_per_channel + self.decoder.weight_bytes()

    def _mode_features(self, coords01: np.ndarray, mode_idx: int) -> np.ndarray:
        """Per-sample (N, rank) products of vector and plane factors."""
        mode = self.modes[mode_idx]
        cells = mode.side - 1
        vec_axis = _VECTOR_AXIS[mode_idx]
        pa, pb = _PLANE_AXES[mode_idx]

        _, vec_vertices, vec_weights = linear_setup(coords01[:, vec_axis], cells)
        vec_vals = np.einsum("rnv,nv->nr",
                             mode.vectors[:, vec_vertices], vec_weights)

        plane_coords = coords01[:, [pa, pb]]
        _, plane_vertices, plane_weights = bilinear_setup(plane_coords, cells,
                                                          assume_clipped=True)
        flat_planes = mode.planes.reshape(mode.rank, -1)
        plane_vals = np.einsum("rnv,nv->nr",
                               flat_planes[:, plane_vertices], plane_weights)
        return vec_vals * plane_vals

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        coords = self.normalized_coords(points)
        total = np.zeros((coords.shape[0], self._feature_dim))
        for mode_idx, mode in enumerate(self.modes):
            products = self._mode_features(coords, mode_idx)
            total += products @ mode.basis
        return total

    def gather_plan(self, points: np.ndarray) -> list:
        coords = self.normalized_coords(points)
        groups = []
        base_address = 0
        for mode_idx, mode in enumerate(self.modes):
            cells = mode.side - 1
            vec_axis = _VECTOR_AXIS[mode_idx]
            pa, pb = _PLANE_AXES[mode_idx]

            plane_cells, plane_vertices, plane_weights = bilinear_setup(
                coords[:, [pa, pb]], cells, assume_clipped=True)
            groups.append(GatherGroup(
                name=f"plane{mode_idx}",
                grid_shape=(cells, cells),
                cell_ids=plane_cells,
                vertex_ids=plane_vertices,
                weights=plane_weights,
                entry_bytes=self.plane_entry_bytes,
                num_entries=mode.side * mode.side,
                base_address=base_address,
                streamable=True,
            ))
            base_address += mode.side * mode.side * self.plane_entry_bytes

            vec_cells, vec_vertices, vec_weights = linear_setup(
                coords[:, vec_axis], cells)
            groups.append(GatherGroup(
                name=f"vector{mode_idx}",
                grid_shape=(cells,),
                cell_ids=vec_cells,
                vertex_ids=vec_vertices,
                weights=vec_weights,
                entry_bytes=self.plane_entry_bytes,
                num_entries=mode.side,
                base_address=base_address,
                streamable=True,
            ))
            base_address += mode.side * self.plane_entry_bytes
        return groups

    def decode(self, features: np.ndarray, view_dirs: np.ndarray):
        return self.decoder.decode(features, view_dirs)
