"""Tests for the spherical-harmonics view encoding."""

import numpy as np
import pytest

from repro.nerf import sh_basis_deg1


class TestSHBasis:
    def test_shape_and_constant_term(self):
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        basis = sh_basis_deg1(dirs)
        assert basis.shape == (2, 4)
        np.testing.assert_allclose(basis[:, 0], 0.28209479177387814)

    def test_linear_terms_track_direction(self):
        z = sh_basis_deg1(np.array([[0.0, 0.0, 1.0]]))
        assert z[0, 2] == pytest.approx(0.4886025119029199)
        assert z[0, 1] == pytest.approx(0.0)
        assert z[0, 3] == pytest.approx(0.0)

    def test_antipodal_flips_linear_terms(self):
        d = np.array([[0.3, -0.5, 0.8]])
        a = sh_basis_deg1(d)
        b = sh_basis_deg1(-d)
        np.testing.assert_allclose(a[:, 1:], -b[:, 1:], atol=1e-12)
        np.testing.assert_allclose(a[:, 0], b[:, 0])

    def test_unnormalized_input_normalized(self):
        a = sh_basis_deg1(np.array([[0.0, 0.0, 10.0]]))
        b = sh_basis_deg1(np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(a, b, atol=1e-12)
