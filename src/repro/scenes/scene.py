"""Scene description: SDF geometry + materials + lights.

A :class:`Scene` is the single source of truth for an experiment: the
ground-truth sphere tracer renders it exactly, and the NeRF fields are baked
from its density/albedo so that rendering-quality comparisons (PSNR) are
meaningful.

One geometry pass per query: every :class:`Scene` query evaluates each
object's SDF once (``distance`` and ``object_index`` reduce the same
per-object distance list), and everything that shades a set of surface
points goes through one :class:`SurfaceShading` pass — normals, nearest
object, albedo and the per-light Lambert terms are computed once and
shared by the diffuse radiance and any number of view directions.

Column-order rule (see :mod:`repro.scenes.sdf`): per-point dot products and
norms are taken one coordinate column at a time in the order NumPy's
last-axis reductions use — ``(a0*b0 + a1*b1) + a2*b2`` — so the radiance is
bit-identical to the ``sum(axis=-1)`` / ``norm(axis=-1)`` formulas kept
inline in ``tests/perf/test_equivalence.py``.  Matrix products
(``normals @ light.direction``, the albedo callables) stay matrix products
over the same rows: BLAS is free to fuse multiply-adds there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .sdf import SDF, estimate_normals

__all__ = ["Material", "SceneObject", "DirectionalLight", "Scene",
           "SurfaceShading", "ObjectShading",
           "checker_albedo", "stripe_albedo", "solid_albedo", "noise_albedo"]


def solid_albedo(color) -> Callable[[np.ndarray], np.ndarray]:
    """Constant albedo."""
    color = np.asarray(color, dtype=float)

    def fn(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(color, points.shape[:-1] + (3,)).copy()

    return fn


def checker_albedo(color_a, color_b, scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """3D checkerboard albedo with cell size ``scale``."""
    color_a = np.asarray(color_a, dtype=float)
    color_b = np.asarray(color_b, dtype=float)

    def fn(points: np.ndarray) -> np.ndarray:
        cells = np.floor(points / scale).astype(np.int64).sum(axis=-1)
        pick = (cells % 2 == 0)[..., None]
        return np.where(pick, color_a, color_b)

    return fn


def stripe_albedo(color_a, color_b, axis: int = 0, scale: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Striped albedo along one axis."""
    color_a = np.asarray(color_a, dtype=float)
    color_b = np.asarray(color_b, dtype=float)

    def fn(points: np.ndarray) -> np.ndarray:
        bands = np.floor(points[..., axis] / scale).astype(np.int64)
        pick = (bands % 2 == 0)[..., None]
        return np.where(pick, color_a, color_b)

    return fn


def noise_albedo(base_color, amplitude: float = 0.3, frequency: float = 2.0,
                 seed: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth pseudo-random color variation (sum of random sinusoids).

    Deterministic in ``seed``; differentiable and band-limited so baked grids
    can represent it without aliasing artifacts dominating PSNR.
    """
    rng = np.random.default_rng(seed)
    base_color = np.asarray(base_color, dtype=float)
    dirs = rng.normal(size=(3, 4, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 4))

    def fn(points: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(base_color, points.shape[:-1] + (3,)).copy()
        for channel in range(3):
            wobble = np.zeros(points.shape[:-1])
            for k in range(4):
                wobble += np.sin(frequency * points @ dirs[channel, k] + phases[channel, k])
            out[..., channel] = np.clip(out[..., channel] + amplitude * wobble / 4.0, 0.0, 1.0)
        return out

    return fn


@dataclass
class Material:
    """Surface material: spatially varying albedo plus Blinn-Phong specular.

    ``specular == 0`` gives a perfectly diffuse (Lambertian) surface — the
    regime where SPARW's radiance approximation is exact.  Non-zero specular
    makes radiance view-dependent, which is what stresses warping on the
    "real-world" scenes (Sec. VI-F of the paper).
    """

    albedo: Callable[[np.ndarray], np.ndarray] = field(default_factory=lambda: solid_albedo([0.8, 0.8, 0.8]))
    specular: float = 0.0
    shininess: float = 32.0


@dataclass
class SceneObject:
    """A geometry (SDF) with its material and a debug name."""

    sdf: SDF
    material: Material = field(default_factory=Material)
    name: str = "object"


@dataclass
class DirectionalLight:
    """Directional light with unit direction pointing *from* the light."""

    direction: np.ndarray
    color: np.ndarray = field(default_factory=lambda: np.ones(3))
    intensity: float = 1.0

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        self.direction = direction / np.linalg.norm(direction)
        self.color = np.asarray(self.color, dtype=float)


def _default_background(directions: np.ndarray) -> np.ndarray:
    """Soft vertical sky gradient used when a scene doesn't override it."""
    t = np.clip(0.5 * (1.0 - directions[..., 1]), 0.0, 1.0)[..., None]
    horizon = np.array([0.85, 0.88, 0.95])
    zenith = np.array([0.35, 0.45, 0.70])
    return (1.0 - t) * zenith + t * horizon


@dataclass
class Scene:
    """A renderable scene: objects, lights, bounds, and a background.

    ``bounds`` is the (min, max) AABB that NeRF fields cover; rays are only
    sampled inside it.  ``bounded`` scenes (the synthetic suite) have all
    geometry inside the box; "unbounded" scenes additionally mark background
    pixels as infinite-depth voids.
    """

    objects: list
    lights: list = field(default_factory=lambda: [
        DirectionalLight(direction=[-0.5, -1.0, -0.3], intensity=0.9),
        DirectionalLight(direction=[0.7, -0.4, 0.5], color=[1.0, 0.95, 0.9], intensity=0.45),
    ])
    bounds: tuple = (np.array([-1.5, -1.5, -1.5]), np.array([1.5, 1.5, 1.5]))
    ambient: float = 0.25
    background: Callable[[np.ndarray], np.ndarray] = _default_background
    name: str = "scene"

    def __post_init__(self):
        lo, hi = self.bounds
        self.bounds = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    # -- geometry queries ---------------------------------------------------

    def _object_distances(self, points: np.ndarray):
        """Each object's distance in turn, so a sweep holds two at a time."""
        return (obj.sdf.distance(points) for obj in self.objects)

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the nearest object surface."""
        return reduce(np.minimum, self._object_distances(points))

    def object_index(self, points: np.ndarray) -> np.ndarray:
        """Index of the nearest object per point (the first one on ties)."""
        dists = self._object_distances(points)
        nearest = next(dists)
        index = np.zeros(np.shape(nearest), dtype=np.int64)
        for i, dist in enumerate(dists, start=1):
            closer = dist < nearest
            index = np.where(closer, i, index)
            nearest = np.where(closer, dist, nearest)
        return index

    def normals(self, points: np.ndarray) -> np.ndarray:
        """Surface normals of the combined field."""
        return estimate_normals(self, points)

    # -- shading --------------------------------------------------------------

    def surface(self, points: np.ndarray,
                normals: np.ndarray | None = None) -> "SurfaceShading":
        """The one geometry pass behind every shade of ``points``."""
        return SurfaceShading(self, points, normals)

    def shade(self, points: np.ndarray, normals: np.ndarray,
              view_dirs: np.ndarray) -> np.ndarray:
        """Blinn-Phong radiance leaving ``points`` toward ``-view_dirs``.

        ``view_dirs`` point from camera toward the surface.  Diffuse shading
        is view-independent; the specular lobe adds the view dependence that
        the baked NeRF fields approximate with spherical harmonics.
        """
        return self.surface(points, normals).shade(view_dirs)


class ObjectShading:
    """The rows of a :class:`SurfaceShading` pass nearest one object.

    Holds what every shade of those rows shares — the ambient term and one
    Lambert term per light — so a view direction only adds the material's
    Blinn-Phong lobe.  Slicing (``part[a:b]``) gives the same thing over a
    run of the rows, as views.
    """

    def __init__(self, material: Material, rows: np.ndarray,
                 normals: np.ndarray, ambient: np.ndarray, lit: list):
        self.material = material
        self.rows = rows          # (K,) indices into the pass's points
        self.normals = normals    # (K, 3)
        self.ambient = ambient    # (K, 3) ambient * albedo
        self.lit = lit            # per light: (light, (K, 3) Lambert term)

    def __getitem__(self, run: slice) -> "ObjectShading":
        return ObjectShading(self.material, self.rows[run],
                             self.normals[run], self.ambient[run],
                             [(light, term[run]) for light, term in self.lit])

    def _lobe(self, light: DirectionalLight, view: np.ndarray) -> np.ndarray:
        """Blinn-Phong highlight of one light, (K,)."""
        half = [-(light.direction[a] + view[:, a]) for a in range(3)]
        length = np.sqrt((half[0] * half[0] + half[1] * half[1])
                         + half[2] * half[2])
        length[length < 1e-12] = 1.0
        n = self.normals
        spec = ((n[:, 0] * (half[0] / length) + n[:, 1] * (half[1] / length))
                + n[:, 2] * (half[2] / length))
        return np.clip(spec, 0.0, 1.0) ** self.material.shininess

    def _radiance(self, view: np.ndarray | None) -> np.ndarray:
        # Per light: the diffuse term first, then the specular term.
        material = self.material
        shaded = self.ambient
        for light, term in self.lit:
            shaded = shaded + term
            if view is not None and material.specular > 0.0:
                shaded = shaded + material.specular * light.intensity * (
                    light.color * self._lobe(light, view)[..., None])
        return np.clip(shaded, 0.0, 1.0)

    def diffuse(self) -> np.ndarray:
        """View-independent radiance of the rows."""
        return self._radiance(None)

    def shade(self, view_dirs: np.ndarray) -> np.ndarray:
        """Radiance toward ``-view_dirs``: one direction, or one per row."""
        return self._radiance(np.broadcast_to(
            np.asarray(view_dirs, dtype=float), self.normals.shape))


class SurfaceShading:
    """One geometry pass over a set of surface points.

    Computes, once: the normals (unless given), the nearest object of every
    point, that object's albedo there, and per light the Lambert term
    ``albedo * color * (intensity * clip(-n.l))``.  :meth:`diffuse` and
    :meth:`shade` then only assemble; ``parts`` exposes the per-object
    pieces to callers that shade object by object (the baker's specular
    fit).
    """

    def __init__(self, scene: Scene, points: np.ndarray,
                 normals: np.ndarray | None = None):
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 3)
        if normals is None:
            normals = scene.normals(flat)
        normals = np.asarray(normals, dtype=float).reshape(-1, 3)
        index = scene.object_index(flat)
        self.shape = points.shape
        self.parts = []
        for i, obj in enumerate(scene.objects):
            rows = np.flatnonzero(index == i)
            if rows.size == 0:
                continue
            albedo = obj.material.albedo(flat[rows])
            facing = normals[rows]
            lit = []
            for light in scene.lights:
                ndotl = np.clip(-facing @ light.direction, 0.0, 1.0)
                lit.append((light, albedo * light.color
                            * (light.intensity * ndotl)[..., None]))
            self.parts.append(ObjectShading(obj.material, rows, facing,
                                            scene.ambient * albedo, lit))

    def _assemble(self, shade_part) -> np.ndarray:
        color = np.empty(self.shape)
        rows = color.reshape(-1, 3)
        for part in self.parts:
            rows[part.rows] = shade_part(part)
        return color

    def diffuse(self) -> np.ndarray:
        """View-independent radiance."""
        return self._assemble(ObjectShading.diffuse)

    def shade(self, view_dirs: np.ndarray) -> np.ndarray:
        """Radiance toward ``-view_dirs`` (one per point)."""
        view = np.asarray(view_dirs, dtype=float).reshape(-1, 3)
        return self._assemble(lambda part: part.shade(view[part.rows]))
