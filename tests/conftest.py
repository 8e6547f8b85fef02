"""Shared fixtures: small-scale scenes, fields, and renders.

Everything here is session-scoped and built at the FAST experiment scale so
the whole suite reuses one set of baked artefacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.geometry import Intrinsics, PinholeCamera, look_at
from repro.harness.configs import FAST, build_renderer, ground_truth_sequence
from repro.nerf import NeRFRenderer, OccupancyGrid, UniformSampler, VoxelGridField
from repro.scenes import RayTracer, get_scene


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="regenerate the tests/golden/data digests instead of "
             "comparing against them")


# -- golden-regression helpers (tests/golden) ---------------------------------
#
# A golden is a small checked-in JSON document of digests (frame-byte
# hashes + key stats) for one deterministic run; tests build the same
# payload live and must match bit for bit.  Regenerate after an
# intentional change with `python -m pytest tests/golden --update-goldens`.
# The helpers live here (not in a tests/golden/conftest.py) because the
# benchmarks suite imports its own sibling `conftest` by bare module
# name, which a second nested conftest module would shadow.

GOLDEN_DATA_DIR = Path(__file__).parent / "golden" / "data"


def _frames_digest(frames) -> str:
    """SHA-256 over the exact image+depth bytes of a frame sequence."""
    digest = hashlib.sha256()
    for frame in frames:
        for plane in (frame.image, frame.depth):
            digest.update(np.ascontiguousarray(
                np.asarray(plane, dtype=np.float64)).tobytes())
    return digest.hexdigest()


def _stats_digest(payload) -> str:
    """SHA-256 of a JSON-able stats object (floats kept at full repr)."""
    from repro.harness.reporting import jsonable
    canonical = json.dumps(jsonable(payload), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(name="frames_digest")
def frames_digest_fixture():
    return _frames_digest


@pytest.fixture(name="stats_digest")
def stats_digest_fixture():
    return _stats_digest


@pytest.fixture
def golden(request):
    """``golden(name, payload)``: compare against (or update) a digest file."""
    update = request.config.getoption("--update-goldens")

    def check(name: str, payload: dict) -> None:
        path = GOLDEN_DATA_DIR / f"{name}.json"
        if update:
            GOLDEN_DATA_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
            return
        assert path.exists(), (
            f"missing golden {path.name}; generate it with "
            f"'python -m pytest tests/golden --update-goldens'")
        expected = json.loads(path.read_text())
        assert payload == expected, (
            f"golden {name!r} drifted from {path}.\n"
            f"expected: {expected}\n"
            f"got:      {payload}\n"
            "If the change is intentional, regenerate with "
            "'python -m pytest tests/golden --update-goldens'.")

    return check


# -- last-axis reference formulas (tests/scenes/test_sdf.py, tests/perf) --------
#
# The SDF primitives and ``estimate_normals`` as reductions along the
# length-3 last axis (``np.linalg.norm(axis=-1)``, ``max(axis=-1)``,
# broadcast offsets) — what they were before they went column-wise.  The
# column code must match these bit for bit.  The older render-path
# kernels' predecessors live beside this file, in ``reference_kernels.py``.


def _last_axis_distance(sdf, points):
    from repro.scenes import sdf as prims
    if isinstance(sdf, prims.Sphere):
        return np.linalg.norm(points - np.asarray(sdf.center),
                              axis=-1) - sdf.radius
    if isinstance(sdf, prims.Box):
        q = np.abs(points - np.asarray(sdf.center)) - np.asarray(sdf.half_size)
        return (np.linalg.norm(np.maximum(q, 0.0), axis=-1)
                + np.minimum(q.max(axis=-1), 0.0))
    if isinstance(sdf, prims.Torus):
        p = points - np.asarray(sdf.center)
        ring = np.sqrt(p[..., 0] ** 2 + p[..., 2] ** 2) - sdf.major
        return np.sqrt(ring ** 2 + p[..., 1] ** 2) - sdf.minor
    if isinstance(sdf, prims.Cylinder):
        p = points - np.asarray(sdf.center)
        radial = np.sqrt(p[..., 0] ** 2 + p[..., 2] ** 2) - sdf.radius
        axial = np.abs(p[..., 1]) - sdf.half_height
        q = np.stack([radial, axial], axis=-1)
        return (np.linalg.norm(np.maximum(q, 0.0), axis=-1)
                + np.minimum(q.max(axis=-1), 0.0))
    if isinstance(sdf, prims.Scaled):
        return _last_axis_distance(sdf.child, points / sdf.factor) * sdf.factor
    return sdf.distance(points)


def _last_axis_normals(distance, points, eps=1e-4):
    """Central differences of a ``distance(points)`` callable."""
    points = np.asarray(points, dtype=float)
    offsets = np.eye(3) * eps
    grads = np.stack([distance(points + offsets[i])
                      - distance(points - offsets[i]) for i in range(3)],
                     axis=-1)
    norms = np.linalg.norm(grads, axis=-1, keepdims=True)
    return grads / np.where(norms < 1e-12, 1.0, norms)


@pytest.fixture(name="last_axis_distance")
def last_axis_distance_fixture():
    return _last_axis_distance


@pytest.fixture(name="last_axis_normals")
def last_axis_normals_fixture():
    return _last_axis_normals


def _assert_same_bits(got, want):
    """Exact equality, signs of zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(name="assert_same_bits")
def assert_same_bits_fixture():
    return _assert_same_bits


@pytest.fixture(scope="session")
def lego_scene():
    return get_scene("lego")


@pytest.fixture(scope="session")
def small_camera():
    """48x48 camera looking at the origin from a generic viewpoint."""
    return PinholeCamera(Intrinsics.from_fov(48, 48, 45.0),
                         look_at([3.0, 1.0, 0.5], [0.0, 0.0, 0.0]))


@pytest.fixture(scope="session")
def gt_frame(lego_scene, small_camera):
    return RayTracer(lego_scene).render(small_camera)


@pytest.fixture(scope="session")
def small_field(lego_scene):
    """A 32^3 baked voxel-grid field of the lego scene."""
    return VoxelGridField.bake(lego_scene, resolution=32, feature_dim=16, max_density=800.0)


@pytest.fixture(scope="session")
def small_renderer(lego_scene, small_field):
    occupancy = OccupancyGrid.from_field(small_field, resolution=24)
    return NeRFRenderer(small_field, UniformSampler(48, occupancy=occupancy),
                        background=lego_scene.background)


@pytest.fixture(scope="session")
def nerf_frame(small_renderer, small_camera):
    frame, out = small_renderer.render_frame(small_camera, record_gather=True)
    return frame, out


@pytest.fixture(scope="session")
def gather_groups(nerf_frame):
    return nerf_frame[1].gather_groups


@pytest.fixture(scope="session")
def fast_config():
    return FAST


@pytest.fixture(scope="session")
def fast_sequence():
    """(trajectory, ground-truth frames) at the FAST scale, cached."""
    return ground_truth_sequence("lego", FAST)


@pytest.fixture(scope="session")
def fast_renderer():
    return build_renderer("directvoxgo", "lego", FAST)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def forced_memo_miss(monkeypatch):
    """Make every cluster run's render-memo lookup miss (stores still happen).

    The simulator builds its per-run memo from the ``SharedLRUCache`` name
    in its own module, so swapping that name forces the unmemoized path
    without a flag — the reference every memo parity test compares to.
    """
    from repro.cluster import simulator
    from repro.workloads import SharedLRUCache

    class MissingMemo(SharedLRUCache):
        def get(self, key, default=None):
            self.stats.misses += 1
            return default

    monkeypatch.setattr(simulator, "SharedLRUCache", MissingMemo)
