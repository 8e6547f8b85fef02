"""NumPy multilayer perceptron with exact analytic-weight construction.

The paper's Feature Computation stage (F) runs each ray sample's interpolated
feature vector through a small MLP.  This module provides that MLP:

* a general :class:`MLP` (linear layers + ReLU) whose forward pass is what
  the NPU model charges cycles for, and
* :func:`identity_affine_mlp`, which builds explicit weights so the network
  computes a *chosen affine function exactly* (via the ``x = relu(x) -
  relu(-x)`` split).  Baked fields use this so rendering is exact while the
  compute cost (MACs, weight bytes) remains that of a genuine MLP inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MLP", "identity_affine_mlp"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class MLP:
    """A ReLU MLP defined by explicit weight/bias lists.

    ``weights[i]`` has shape (fan_in, fan_out); activation is applied after
    every layer except the last.
    """

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias dimension mismatch")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("layer dimension mismatch")

    # -- inference -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass over (..., fan_in) inputs."""
        out = np.asarray(x, dtype=float)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = out @ w + b
            if i != last:
                out = _relu(out)
        return out

    __call__ = forward

    # -- cost accounting -------------------------------------------------------

    def macs_per_sample(self) -> int:
        """Multiply-accumulates for one input vector (NPU cost input)."""
        return int(sum(w.shape[0] * w.shape[1] for w in self.weights))

    def weight_bytes(self) -> int:
        """Model-weight footprint in fp16, as on the paper's NPU."""
        params = sum(w.size + b.size for w, b in zip(self.weights, self.biases))
        return int(params) * 2


def identity_affine_mlp(matrix: np.ndarray, hidden_layers: int = 1) -> MLP:
    """Build an MLP that computes ``y = x @ matrix`` *exactly*.

    Every hidden layer doubles the width and splits each value into its
    positive and negative parts (``relu(v)`` and ``relu(-v)``); the final
    layer recombines them through ``matrix``.  The result is a real ReLU
    network — the NPU simulator charges for all its MACs — whose output is
    bit-exact to the requested affine map, which is what lets the baked
    fields render deterministically without gradient training.
    """
    matrix = np.asarray(matrix, dtype=float)
    fan_in, fan_out = matrix.shape
    if hidden_layers < 1:
        return MLP(weights=[matrix.copy()], biases=[np.zeros(fan_out)])

    split = np.concatenate([np.eye(fan_in), -np.eye(fan_in)], axis=1)
    merge = np.concatenate([np.eye(fan_in), -np.eye(fan_in)], axis=0)

    weights = [split]
    biases = [np.zeros(2 * fan_in)]
    for _ in range(hidden_layers - 1):
        weights.append(merge @ split)
        biases.append(np.zeros(2 * fan_in))
    weights.append(merge @ matrix)
    biases.append(np.zeros(fan_out))
    return MLP(weights=weights, biases=biases)
