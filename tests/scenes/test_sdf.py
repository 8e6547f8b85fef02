"""Tests for SDF primitives and CSG combinators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf.baking import vertex_grid_positions
from repro.scenes.sdf import (
    Box,
    Cylinder,
    Intersection,
    Sphere,
    Torus,
    Union,
    estimate_normals,
)

points3 = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=3,
    max_size=3)


class TestSphere:
    def test_distance_signs(self):
        s = Sphere(center=[0, 0, 0], radius=1.0)
        d = s.distance(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                 [1.0, 0.0, 0.0]]))
        assert d[0] == pytest.approx(-1.0)
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(0.0)

    @settings(max_examples=30, deadline=None)
    @given(p=points3)
    def test_exact_metric(self, p):
        s = Sphere(center=[0.5, -0.2, 0.1], radius=0.7)
        d = s.distance(np.array([p]))
        expected = np.linalg.norm(np.array(p) - [0.5, -0.2, 0.1]) - 0.7
        assert d[0] == pytest.approx(expected, abs=1e-12)


class TestBox:
    def test_inside_negative(self):
        b = Box(center=[0, 0, 0], half_size=[1, 1, 1])
        assert b.distance(np.zeros((1, 3)))[0] == pytest.approx(-1.0)

    def test_face_distance(self):
        b = Box(center=[0, 0, 0], half_size=[1, 1, 1])
        assert b.distance(np.array([[2.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_corner_distance(self):
        b = Box(center=[0, 0, 0], half_size=[1, 1, 1])
        d = b.distance(np.array([[2.0, 2.0, 2.0]]))
        assert d[0] == pytest.approx(np.sqrt(3.0))


class TestOtherPrimitives:
    def test_torus_ring_point_on_surface(self):
        t = Torus(major=1.0, minor=0.25)
        assert t.distance(np.array([[1.25, 0.0, 0.0]]))[0] == pytest.approx(0.0)

    def test_cylinder_radial_and_axial(self):
        c = Cylinder(radius=0.5, half_height=1.0)
        assert c.distance(np.array([[1.5, 0.0, 0.0]]))[0] == pytest.approx(1.0)
        assert c.distance(np.array([[0.0, 2.0, 0.0]]))[0] == pytest.approx(1.0)


class TestCSG:
    def test_union_is_min(self):
        a = Sphere(center=[0, 0, 0], radius=1.0)
        b = Sphere(center=[3, 0, 0], radius=1.0)
        u = Union([a, b])
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        np.testing.assert_allclose(u.distance(pts), [-1.0, -1.0])

    def test_operator_or(self):
        a = Sphere(radius=1.0)
        b = Box(half_size=[0.5, 0.5, 0.5])
        u = a | b
        assert isinstance(u, Union)

    def test_intersection_is_max(self):
        a = Sphere(center=[0, 0, 0], radius=1.0)
        b = Sphere(center=[1, 0, 0], radius=1.0)
        pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        np.testing.assert_allclose(Intersection([a, b]).distance(pts),
                                   np.maximum(a.distance(pts),
                                              b.distance(pts)))
        # Inside both -> inside; inside only one -> outside.
        assert Intersection([a, b]).distance(pts[:1])[0] < 0
        assert Intersection([a, b]).distance(pts[1:])[0] > 0

    def test_operator_and(self):
        a = Sphere(radius=1.0)
        b = Box(half_size=[0.5, 0.5, 0.5])
        both = a & b
        assert isinstance(both, Intersection)
        pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(64, 3))
        np.testing.assert_array_equal(both.distance(pts),
                                      Intersection([a, b]).distance(pts))

    def test_subtraction_removes_overlap(self):
        base = Sphere(radius=1.0)
        cut = Sphere(radius=0.5)
        sub = base - cut
        # Center is inside the cut -> outside the result.
        assert sub.distance(np.zeros((1, 3)))[0] > 0

    def test_scaled(self):
        s = Sphere(radius=1.0).scaled(2.0)
        assert s.distance(np.array([[2.0, 0.0, 0.0]]))[0] == pytest.approx(0.0)


class TestNormals:
    def test_sphere_normals_radial(self):
        s = Sphere(radius=1.0)
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        normals = estimate_normals(s, pts)
        np.testing.assert_allclose(normals, pts, atol=1e-4)

    def test_normals_unit_length(self):
        b = Box(half_size=[0.5, 1.0, 0.7])
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 3))
        normals = estimate_normals(b, pts)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                                   atol=1e-9)


# -- column code vs. the last-axis formulas, bit for bit -------------------------

CENTER = [0.1, -0.3, 0.2]
PRIMITIVES = {
    "sphere": Sphere(center=CENTER, radius=0.7),
    "box": Box(center=CENTER, half_size=[0.3, 0.45, 0.6]),
    "torus": Torus(center=CENTER, major=0.6, minor=0.15),
    "cylinder": Cylinder(center=CENTER, radius=0.4, half_height=0.5),
    # Centred at the origin, so a +-0.0 coordinate stays a signed zero.
    "box@0": Box(half_size=[0.5, 0.25, 0.75]),
    "cylinder@0": Cylinder(radius=0.5, half_height=0.5),
    "sphere@0": Sphere(radius=0.5),
    "torus@0": Torus(major=0.5, minor=0.25),
}


def _surface_points(sdf, rng, count=64):
    """Points exactly on a face / cap / equator of ``sdf``."""
    center = np.asarray(sdf.center, dtype=float)
    if isinstance(sdf, Box):
        half = np.asarray(sdf.half_size, dtype=float)
        pts = center + rng.uniform(-1.0, 1.0, size=(count, 3)) * half
        axis = rng.integers(0, 3, size=count)
        side = rng.choice([-1.0, 1.0], size=count)
        rows = np.arange(count)
        pts[rows, axis] = center[axis] + side * half[axis]
        return pts
    if isinstance(sdf, Cylinder):
        pts = center + rng.uniform(-1.0, 1.0, size=(count, 3)) * 0.2
        pts[::2, 1] = center[1] + sdf.half_height  # top cap
        pts[1::2, 0] = center[0] + sdf.radius  # wall, z = centre
        pts[1::2, 2] = center[2]
        return pts
    radius = sdf.radius if isinstance(sdf, Sphere) else sdf.major + sdf.minor
    axis = rng.integers(0, 3, size=count) if isinstance(sdf, Sphere) \
        else np.zeros(count, dtype=int)
    pts = np.tile(center, (count, 1))
    pts[np.arange(count), axis] += rng.choice([-1.0, 1.0], size=count) * radius
    return pts


def _probe_points(sdf):
    rng = np.random.default_rng(17)
    spread = rng.uniform(-1.5, 1.5, size=(512, 3))  # inside and outside
    zeros = rng.uniform(-1.0, 1.0, size=(128, 3))
    zeros[rng.random(size=zeros.shape) < 0.5] = 0.0
    zeros[rng.random(size=zeros.shape) < 0.25] = -0.0
    return np.vstack([spread, _surface_points(sdf, rng), zeros])


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
class TestColumnPrimitives:
    def test_points_inside_outside_on_faces_and_signed_zeros(
            self, name, last_axis_distance, assert_same_bits):
        sdf = PRIMITIVES[name]
        pts = _probe_points(sdf)
        assert (sdf.distance(pts) < 0).any() and (sdf.distance(pts) > 0).any()
        assert_same_bits(sdf.distance(pts), last_axis_distance(sdf, pts))

    def test_lattice(self, name, last_axis_distance, assert_same_bits):
        sdf = PRIMITIVES[name]
        lattice = vertex_grid_positions(([-1.5] * 3, [1.5] * 3), 32)
        assert lattice.shape == (33 ** 3, 3)
        assert_same_bits(sdf.distance(lattice),
                         last_axis_distance(sdf, lattice))

    def test_every_shape_runs_the_same_columns(
            self, name, last_axis_distance, assert_same_bits):
        sdf = PRIMITIVES[name]
        pts = _probe_points(sdf)[:600]
        flat = last_axis_distance(sdf, pts)
        block = sdf.distance(pts.reshape(20, 30, 3))
        assert_same_bits(block, flat.reshape(20, 30))
        for row in (0, 300, 599):
            single = sdf.distance(pts[row])
            assert np.shape(single) == ()
            assert_same_bits(np.float64(single), flat[row])

    def test_input_is_not_written(self, name):
        pts = _probe_points(PRIMITIVES[name])
        before = pts.copy()
        PRIMITIVES[name].distance(pts)
        estimate_normals(PRIMITIVES[name], pts)
        assert pts.tobytes() == before.tobytes()

    def test_normals(self, name, last_axis_distance, last_axis_normals,
                     assert_same_bits):
        sdf = PRIMITIVES[name]
        pts = _probe_points(sdf)

        def distance(p):
            return last_axis_distance(sdf, p)

        want = last_axis_normals(distance, pts)
        assert_same_bits(estimate_normals(sdf, pts), want)
        assert_same_bits(estimate_normals(sdf, pts[:600].reshape(20, 30, 3)),
                         want[:600].reshape(20, 30, 3))
        assert_same_bits(estimate_normals(sdf, pts[5]), want[5])


def test_normals_query_exactly_the_broadcast_offsets(assert_same_bits):
    # ``p + eps*e_a`` turns a -0.0 in the other two columns into +0.0 and
    # ``p - eps*e_a`` keeps it: the SDF must see those very points.
    seen = []

    class Spy(Sphere):
        def distance(self, points):
            seen.append(points.copy())
            return super().distance(points)

    pts = np.array([[0.3, -0.0, -0.0], [-0.0, 0.2, 0.0], [-0.0, -0.0, 0.7]])
    estimate_normals(Spy(), pts)
    offsets = np.eye(3) * 1e-4
    want = [side for a in range(3)
            for side in (pts + offsets[a], pts - offsets[a])]
    assert len(seen) == 6
    for got, expected in zip(seen, want):
        assert_same_bits(got, expected)
