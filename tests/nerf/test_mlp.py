"""Tests for the NumPy MLP and exact affine construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf import MLP, identity_affine_mlp


def zero_mlp(dims: list) -> MLP:
    """An all-zero MLP with the given layer widths."""
    return MLP(weights=[np.zeros(shape) for shape in zip(dims, dims[1:])],
               biases=[np.zeros(width) for width in dims[1:]])


class TestMLPBasics:
    def test_random_forward_shape(self):
        rng = np.random.default_rng(0)
        mlp = MLP(weights=[rng.normal(size=(8, 16)), rng.normal(size=(16, 4))],
                  biases=[np.zeros(16), np.zeros(4)])
        out = mlp(np.zeros((5, 8)))
        assert out.shape == (5, 4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MLP(weights=[np.zeros((4, 8)), np.zeros((9, 2))],
                biases=[np.zeros(8), np.zeros(2)])

    def test_bias_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MLP(weights=[np.zeros((4, 8))], biases=[np.zeros(7)])

    def test_macs_per_sample(self):
        mlp = zero_mlp([8, 16, 4])
        assert mlp.macs_per_sample() == 8 * 16 + 16 * 4

    def test_weight_bytes_fp16(self):
        mlp = zero_mlp([8, 16, 4])
        params = 8 * 16 + 16 + 16 * 4 + 4
        assert mlp.weight_bytes() == params * 2

    def test_relu_applied_to_hidden_only(self):
        # A single layer has no activation: negative outputs allowed.
        w = np.array([[-1.0]])
        mlp = MLP(weights=[w], biases=[np.zeros(1)])
        assert mlp(np.array([[2.0]]))[0, 0] == pytest.approx(-2.0)


class TestIdentityAffine:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), hidden=st.integers(1, 3))
    def test_exact_affine(self, seed, hidden):
        """The constructed ReLU network must equal x @ M bit-for-bit-ish."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(6, 4))
        mlp = identity_affine_mlp(matrix, hidden_layers=hidden)
        x = rng.normal(size=(32, 6))
        np.testing.assert_allclose(mlp(x), x @ matrix, atol=1e-12)

    def test_is_genuine_multilayer_network(self):
        mlp = identity_affine_mlp(np.eye(3), hidden_layers=2)
        assert len(mlp.weights) == 3
        assert mlp.macs_per_sample() > 3 * 3  # more than the plain matmul

    def test_zero_hidden_layers_is_plain_affine(self):
        matrix = np.arange(6.0).reshape(2, 3)
        mlp = identity_affine_mlp(matrix, hidden_layers=0)
        assert len(mlp.weights) == 1
        np.testing.assert_allclose(mlp(np.array([[1.0, 2.0]])),
                                   np.array([[1.0, 2.0]]) @ matrix)

    def test_negative_inputs_pass_through(self):
        mlp = identity_affine_mlp(np.eye(2))
        x = np.array([[-5.0, -0.1]])
        np.testing.assert_allclose(mlp(x), x, atol=1e-12)
