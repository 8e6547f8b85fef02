"""Shared Feature Computation (F): MLP + spherical-harmonics radiance decode.

All three field families store the same per-vertex feature layout and share
this decoder, mirroring how the paper treats Feature Computation as a fixed
MLP stage independent of the feature representation:

====  ======================================================
 ch    meaning
====  ======================================================
 0     density (sigma, non-negative)
 1-3   diffuse RGB
 4-12  view-dependence: 3x3 linear-SH coefficients (RGB x xyz)
 13+   zero padding up to ``feature_dim``
====  ======================================================
"""

from __future__ import annotations

import numpy as np

from ..encoding import SH_DEG1_DIM, sh_basis_deg1
from ..mlp import MLP, identity_affine_mlp

__all__ = ["SHDecoder", "CORE_FEATURE_DIM"]

# sigma + rgb + 3x3 SH coefficients.  Kept in sync with
# repro.nerf.baking.CORE_FEATURE_DIM (the bake side defines its own copy to
# avoid an import cycle through the fields package).
CORE_FEATURE_DIM = 13


class SHDecoder:
    """Decode interpolated features (+ view direction) to (sigma, rgb).

    The MLP consumes ``feature_dim + 4`` inputs (features concatenated with
    the degree-1 SH view encoding) and emits the 13 core channels.  Its
    weights are constructed so the core channels pass through exactly; the
    view-dependent radiance is then the SH expansion
    ``rgb = diffuse + C @ [Y(x), Y(y), Y(z)]``.

    Density follows the standard NeRF recipe of a nonlinearity on the raw
    network output: ``sigma = max_density * sigmoid(logit)``.  Fields store
    the *logit* (linear in the SDF), which interpolates and factorises far
    better than the sharp density itself.
    """

    def __init__(self, feature_dim: int = 16, max_density: float = 800.0):
        if feature_dim < CORE_FEATURE_DIM:
            raise ValueError(
                f"feature_dim must be >= {CORE_FEATURE_DIM}, got {feature_dim}")
        self.feature_dim = feature_dim
        self.max_density = float(max_density)
        matrix = np.zeros((feature_dim + SH_DEG1_DIM, CORE_FEATURE_DIM))
        matrix[:CORE_FEATURE_DIM, :CORE_FEATURE_DIM] = np.eye(CORE_FEATURE_DIM)
        self.mlp: MLP = identity_affine_mlp(matrix, hidden_layers=2)

    def density(self, features: np.ndarray) -> np.ndarray:
        """Density activation alone (used by occupancy-grid construction)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        logit = np.clip(features[:, 0], -40.0, 40.0)
        return self.max_density / (1.0 + np.exp(-logit))

    def decode(self, features: np.ndarray, view_dirs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """(N, F) features + (N, 3) dirs -> (sigma (N,), rgb (N, 3))."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        view_dirs = np.atleast_2d(np.asarray(view_dirs, dtype=float))
        sh = sh_basis_deg1(view_dirs)
        # The identity-affine MLP's weights are all 0/+1/-1, so every dot
        # product in its forward pass reduces to at most two exact terms:
        # the network output *bit-equals* the first CORE_FEATURE_DIM input
        # channels, and this measured hot path skips the matmuls.  The
        # full forward stays available for the cost model and the
        # equivalence test (decode_reference in tests/reference_kernels.py).
        core = features[:, :CORE_FEATURE_DIM]

        logit = np.clip(core[:, 0], -40.0, 40.0)
        sigma = self.max_density / (1.0 + np.exp(-logit))
        diffuse = core[:, 1:4]
        coeffs = core[:, 4:13].reshape(-1, 3, 3)
        # Linear SH terms only (the constant term is folded into diffuse).
        view_basis = sh[:, 1:4]
        rgb = np.clip(diffuse + np.einsum("ncb,nb->nc", coeffs, view_basis), 0.0, 1.0)
        return sigma, rgb

    # -- costs ------------------------------------------------------------------

    def macs_per_sample(self) -> int:
        return self.mlp.macs_per_sample()

    def weight_bytes(self) -> int:
        return self.mlp.weight_bytes()
