"""View-direction encoding: degree-1 spherical harmonics.

The baked fields store per-vertex spherical-harmonic (SH) coefficients so the
decoded radiance can be view-dependent — the same mechanism PlenOctrees and
DirectVoxGO-style models use.  Degree-1 SH (4 basis functions) captures the
broad specular lobes of the procedural scenes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sh_basis_deg1", "SH_DEG1_DIM"]

SH_DEG1_DIM = 4

# Real SH normalisation constants for l=0 and l=1.
_SH_C0 = 0.28209479177387814
_SH_C1 = 0.4886025119029199


def sh_basis_deg1(directions: np.ndarray) -> np.ndarray:
    """Degree-1 real spherical harmonics basis evaluated at unit directions.

    Returns (..., 4): [Y00, Y1-1, Y10, Y11] = [c0, -c1*y, c1*z, -c1*x].
    """
    d = np.asarray(directions, dtype=float)
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    d = d / np.where(norm < 1e-12, 1.0, norm)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.stack([
        np.full_like(x, _SH_C0),
        -_SH_C1 * y,
        _SH_C1 * z,
        -_SH_C1 * x,
    ], axis=-1)
