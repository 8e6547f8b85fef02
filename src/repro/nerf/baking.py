"""Baking: fill per-vertex NeRF features from an analytic scene.

The paper renders *trained* checkpoints; training is never on its critical
path (all measurements are inference-time).  This module replaces gradient
training with direct evaluation: density comes from the scene SDF, diffuse
radiance from Lambertian shading, and the view-dependent component is fitted
per vertex onto the degree-1 spherical-harmonics basis by least squares over
a fixed set of probe directions.  The baked features follow the layout in
:mod:`repro.nerf.fields.decode`.

A bake costs what its surface shell costs: one SDF pass over the lattice,
then one :meth:`Scene.surface <repro.scenes.scene.Scene.surface>` pass over
the shell vertices (normals, nearest object, albedo and Lambert terms,
each once), which the diffuse channels and all twelve probe shades share.
Everything downstream of the scene keeps the column-order rule of
:mod:`repro.scenes.sdf`, so the tables are bit-identical to a bake that
re-derives the geometry per probe (``tests/golden`` holds their digests).
"""

from __future__ import annotations

import numpy as np

from .encoding import sh_basis_deg1

# Matches repro.nerf.fields.decode.CORE_FEATURE_DIM (imported lazily there to
# avoid a package-init cycle: fields.voxel_grid depends on this module).
CORE_FEATURE_DIM = 13

__all__ = ["vertex_grid_positions", "bake_vertex_features", "PROBE_DIRECTIONS"]

# Twelve roughly uniform probe directions (icosahedron vertices) used for the
# least-squares fit of the view-dependent radiance.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
PROBE_DIRECTIONS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
])
PROBE_DIRECTIONS = PROBE_DIRECTIONS / np.linalg.norm(PROBE_DIRECTIONS, axis=1,
                                                     keepdims=True)
# Least-squares projection of per-probe values onto the three linear SH
# basis functions, (3, K); view directions are -probe.
_PROBE_PROJECTION = np.linalg.pinv(sh_basis_deg1(-PROBE_DIRECTIONS)[:, 1:4])


def vertex_grid_positions(bounds: tuple, resolution) -> np.ndarray:
    """World positions of the ``(R+1)^3`` vertex lattice over ``bounds``.

    Vertices are ordered row-major to match
    :func:`repro.nerf.fields.interp.trilinear_setup` ids.
    """
    lo, hi = np.asarray(bounds[0], dtype=float), np.asarray(bounds[1], dtype=float)
    cells = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (3,))
    axes = [np.linspace(lo[a], hi[a], int(cells[a]) + 1) for a in range(3)]
    grid = np.empty(tuple(len(axis) for axis in axes) + (3,))
    grid[..., 0] = axes[0][:, None, None]
    grid[..., 1] = axes[1][None, :, None]
    grid[..., 2] = axes[2][None, None, :]
    return grid.reshape(-1, 3)


# Rows of one object fitted at a time: bounds the (rows, 12, 3) residual
# block so the specular fit never sets a bake's resident peak.
_FIT_ROWS = 1 << 14


def _fit_view_dependence(part) -> np.ndarray:
    """Least-squares linear-SH coefficients of the specular radiance.

    ``part`` is an :class:`~repro.scenes.scene.ObjectShading`.  For each of
    its rows we evaluate the full shaded radiance along the probe
    directions (as if viewed from each direction), subtract the diffuse
    part, and project the residual onto the three linear SH basis functions.
    Returns (K, 3 colors, 3 basis).
    """
    diffuse = part.diffuse()
    residuals = np.empty((diffuse.shape[0], PROBE_DIRECTIONS.shape[0], 3))
    for k, probe in enumerate(PROBE_DIRECTIONS):
        # View direction points from camera toward the surface: the camera
        # sits along +probe, looking along -probe.
        residuals[:, k, :] = part.shade(-probe) - diffuse
    return np.einsum("mk,nkc->ncm", _PROBE_PROJECTION, residuals)


def bake_vertex_features(
    scene,
    positions: np.ndarray,
    feature_dim: int,
    shell_width: float | None = None,
    density_sharpness: float = 40.0,
    surface_bias: float = 0.0,
) -> np.ndarray:
    """Evaluate the feature layout of :class:`SHDecoder` at ``positions``.

    Only vertices within ``shell_width`` of a surface get color/SH content
    (their density is the only thing that matters elsewhere), which keeps
    baking cost proportional to surface area rather than volume.

    ``surface_bias`` shifts the density transition *inward* (positive bias,
    world units), compensating the residual silhouette bloat of the soft
    density shell.

    Channel 0 stores the density *logit* ``-sharpness * (d + bias)``
    (clipped); the decoder's sigmoid turns it into density (whose scale,
    ``max_density``, therefore lives in the decoder).  The logit is
    linear in the SDF, so trilinear interpolation, hash-level residuals and
    tensor factorisation all represent it far more faithfully than the
    near-discontinuous density itself.
    """
    positions = np.asarray(positions, dtype=float)
    if feature_dim < CORE_FEATURE_DIM:
        raise ValueError(f"feature_dim must be >= {CORE_FEATURE_DIM}")

    features = np.zeros((positions.shape[0], feature_dim))
    distance = scene.distance(positions)
    biased = distance + surface_bias
    features[:, 0] = np.clip(-density_sharpness * biased, -40.0, 40.0)

    if shell_width is None:
        lo, hi = scene.bounds
        # Default shell: a few voxels of the coarsest plausible grid.
        shell_width = float((hi - lo).max()) * 0.05
    shell = np.flatnonzero(np.abs(distance) < shell_width)
    if shell.size:
        surface = scene.surface(positions[shell])
        features[shell, 1:4] = surface.diffuse()
        for part in surface.parts:
            if part.material.specular <= 0.0:
                continue  # shades the same from every probe: zero residual
            for start in range(0, part.rows.size, _FIT_ROWS):
                run = part[start:start + _FIT_ROWS]
                features[shell[run.rows], 4:13] = _fit_view_dependence(
                    run).reshape(-1, 9)
    return features
