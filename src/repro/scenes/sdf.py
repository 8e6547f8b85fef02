"""Signed-distance-field primitives and CSG combinators.

The procedural scenes that stand in for Synthetic-NeRF / Tanks-and-Temples
are built from these analytic SDFs.  Having exact geometry gives the
reproduction an exact ground truth: the sphere-tracing renderer in
:mod:`repro.scenes.raytracer` produces reference images and depth maps, and
the NeRF fields in :mod:`repro.nerf` are baked from the same SDFs.

All primitives implement ``distance(points) -> (...,)`` for ``(..., 3)``
inputs — a single ``(3,)`` point, ``(N, 3)`` or an ``(H, W, 3)`` block — and
are vectorised NumPy throughout.

Column-order rule: :class:`Sphere`, :class:`Box`, :class:`Torus`,
:class:`Cylinder` and :func:`estimate_normals` work on one coordinate column
at a time (``points[:, a]`` of the flattened input), never along the
length-3 last axis, whose reductions cost an order of magnitude more per
element.  The columns combine in the order NumPy's last-axis reductions use,
so results are bit-identical to the ``np.linalg.norm(axis=-1)`` /
``max(axis=-1)`` formulas (kept in ``tests/conftest.py`` for the tests):
a Euclidean norm is ``sqrt((x*x + y*y) + z*z)`` — not ``(y*y + z*z) + x*x``
— and a maximum is ``maximum(maximum(q0, q1), q2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "SDF",
    "Sphere",
    "Box",
    "Torus",
    "Cylinder",
    "Union",
    "Intersection",
    "Subtraction",
    "Scaled",
    "estimate_normals",
]


def _centred_columns(points: np.ndarray, center) -> tuple[list, tuple]:
    """Fresh ``x, y, z`` columns of ``points - center``, and the result shape.

    The input is flattened to ``(N, 3)`` first, so every caller-visible
    shape runs the same 1-D column code and the columns are always arrays
    an in-place ``out=`` can write to.
    """
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, 3)
    center = np.asarray(center, dtype=float)
    return [flat[:, a] - center[a] for a in range(3)], points.shape[:-1]


def _norm_into(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Euclidean norm of the columns, left to right, overwriting them all."""
    np.multiply(first, first, out=first)
    for column in rest:
        np.multiply(column, column, out=column)
        first += column
    return np.sqrt(first, out=first)


def _box_distance(*q: np.ndarray) -> np.ndarray:
    """Distance to a box from per-axis ``|p| - half`` columns (overwritten)."""
    inside = np.minimum(reduce(np.maximum, q), 0.0)
    for column in q:
        np.maximum(column, 0.0, out=column)
    outside = _norm_into(*q)
    outside += inside
    return outside


class SDF:
    """Base class for signed distance fields."""

    def distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # CSG sugar -------------------------------------------------------------

    def __or__(self, other: "SDF") -> "SDF":
        return Union([self, other])

    def __and__(self, other: "SDF") -> "SDF":
        return Intersection([self, other])

    def __sub__(self, other: "SDF") -> "SDF":
        return Subtraction(self, other)

    def scaled(self, factor: float) -> "SDF":
        return Scaled(self, float(factor))


@dataclass
class Sphere(SDF):
    """Sphere of ``radius`` centred at ``center``."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 1.0

    def distance(self, points: np.ndarray) -> np.ndarray:
        columns, shape = _centred_columns(points, self.center)
        dist = _norm_into(*columns)
        dist -= self.radius
        return dist.reshape(shape)


@dataclass
class Box(SDF):
    """Axis-aligned box with half-extents ``half_size`` centred at ``center``."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    half_size: np.ndarray = field(default_factory=lambda: np.ones(3))

    def distance(self, points: np.ndarray) -> np.ndarray:
        columns, shape = _centred_columns(points, self.center)
        half_size = np.asarray(self.half_size, dtype=float)
        for column, half in zip(columns, half_size):
            np.abs(column, out=column)
            column -= half
        return _box_distance(*columns).reshape(shape)


@dataclass
class Torus(SDF):
    """Torus in the xz-plane: major radius ``major``, tube radius ``minor``."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    major: float = 1.0
    minor: float = 0.25

    def distance(self, points: np.ndarray) -> np.ndarray:
        (x, y, z), shape = _centred_columns(points, self.center)
        ring = _norm_into(x, z)
        ring -= self.major
        dist = _norm_into(ring, y)
        dist -= self.minor
        return dist.reshape(shape)


@dataclass
class Cylinder(SDF):
    """Finite vertical (y-axis) cylinder."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 0.5
    half_height: float = 1.0

    def distance(self, points: np.ndarray) -> np.ndarray:
        (x, y, z), shape = _centred_columns(points, self.center)
        radial = _norm_into(x, z)
        radial -= self.radius
        axial = np.abs(y, out=y)
        axial -= self.half_height
        return _box_distance(radial, axial).reshape(shape)


@dataclass
class Union(SDF):
    """CSG union: minimum of child distances."""

    children: list

    def distance(self, points: np.ndarray) -> np.ndarray:
        dists = [child.distance(points) for child in self.children]
        return np.minimum.reduce(dists)


@dataclass
class Intersection(SDF):
    """CSG intersection: maximum of child distances."""

    children: list

    def distance(self, points: np.ndarray) -> np.ndarray:
        dists = [child.distance(points) for child in self.children]
        return np.maximum.reduce(dists)


@dataclass
class Subtraction(SDF):
    """CSG subtraction: ``base`` minus ``cut``."""

    base: SDF
    cut: SDF

    def distance(self, points: np.ndarray) -> np.ndarray:
        return np.maximum(self.base.distance(points), -self.cut.distance(points))


@dataclass
class Scaled(SDF):
    """Child SDF uniformly scaled about the origin."""

    child: SDF
    factor: float

    def distance(self, points: np.ndarray) -> np.ndarray:
        return self.child.distance(points / self.factor) * self.factor


def estimate_normals(sdf, points: np.ndarray) -> np.ndarray:
    """Central-difference surface normals at ``points``.

    ``sdf`` is anything with a ``distance(points)`` method: an :class:`SDF`
    or a whole :class:`~repro.scenes.scene.Scene`.
    """
    eps = 1e-4
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, 3)
    # Stepping along axis ``a`` is ``p + eps*e_a`` and ``p - eps*e_a``; on the
    # other two columns that is ``p + 0.0`` (which turns -0.0 into +0.0)
    # and ``p - 0.0`` (which does not).
    ahead = flat + 0.0
    behind = flat.copy()
    grads = []
    for a in range(3):
        ahead[:, a] = flat[:, a] + eps
        behind[:, a] = flat[:, a] - eps
        grads.append(sdf.distance(ahead) - sdf.distance(behind))
        ahead[:, a] = flat[:, a] + 0.0
        behind[:, a] = flat[:, a]
    gx, gy, gz = grads
    norm = np.sqrt((gx * gx + gy * gy) + gz * gz)
    norm[norm < 1e-12] = 1.0
    normals = np.empty_like(flat)
    for a in range(3):
        np.divide(grads[a], norm, out=normals[:, a])
    return normals.reshape(points.shape)
