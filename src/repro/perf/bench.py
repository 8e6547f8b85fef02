"""Microbenchmark registry and runner behind ``cli bench``.

Every kernel on the serving hot path registers a benchmark here; the
runner times each one, derives throughput (rays/s, samples/s, pixels/s,
frames/s), and — where a predecessor implementation survives in
:mod:`repro.perf.reference` — reports the measured speedup.  ``cli
bench`` persists the rows as ``BENCH_perf.json`` together with an
environment fingerprint, establishing the perf trajectory every PR is
judged against (compare two artifacts with ``compare_bench.py``).

Benchmarks run at two scales:

* full (default) — the :data:`~repro.harness.configs.DEFAULT` experiment
  scale; minutes of wall clock, stable numbers.
* ``quick=True`` — the :data:`~repro.harness.configs.FAST` scale with
  fewer repetitions; seconds of wall clock, for CI smoke.

The registry is data, not policy: each entry is ``fn(ctx) -> row dict``
and new kernels register with :func:`register`.  Registered benchmarks
must return finite, positive ``ns_per_op`` (enforced by
``tests/perf/test_registry.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..backend import BACKENDS, DEFAULT_BACKEND
from ..core.sparw.disocclusion import classify_pixels
from ..core.sparw.pipeline import SparwRenderer
from ..core.sparw.warp import VOID_FAR_DEPTH, splat_surface, warp_frame
from ..geometry.pointcloud import depth_to_points, transform_points
from ..geometry.transforms import relative_pose
from ..harness.configs import (DEFAULT, FAST, ExperimentConfig,
                               build_renderer, ground_truth_sequence,
                               make_camera)
from ..nerf.volume_render import composite
from .envinfo import environment_fingerprint
from .reference import (decode_reference, interpolate_hash_reference,
                        interpolate_voxel_reference, reference_geometry,
                        reference_renderer)
from .timer import Timer, activate

__all__ = ["register", "registered_kernels", "run_benchmarks",
           "BenchContext"]

REGISTRY: dict = {}

# The default scene/algorithm the headline frames/s number is measured on.
DEFAULT_SCENE = "lego"
DEFAULT_ALGORITHM = "directvoxgo"


@dataclass
class BenchContext:
    """Everything a benchmark body needs: scale + rep counts.

    ``reps`` is the per-kernel repetition count (after one untimed
    warmup); ``quick`` selects the FAST config and is surfaced so
    benchmarks can shrink their synthetic inputs.  ``backend`` and
    ``engine_workers`` carry the run's backend selection (see
    :mod:`repro.backend`) so engine-level benchmarks thread it through
    to their :class:`~repro.engine.MultiSessionEngine`.
    """

    config: ExperimentConfig
    quick: bool
    reps: int
    backend: str | None = None
    engine_workers: int | None = None


def register(name: str):
    """Decorator: add ``fn(ctx) -> row`` to the registry under ``name``."""
    def decorator(fn):
        if name in REGISTRY:
            raise ValueError(f"duplicate benchmark {name!r}")
        REGISTRY[name] = fn
        return fn
    return decorator


def registered_kernels() -> list:
    """Registered benchmark names, in registration order."""
    return list(REGISTRY)


def _time_reps(fn, reps: int) -> float:
    """Mean wall seconds per call of ``fn`` (one untimed warmup)."""
    fn()
    start = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - start) / reps / 1e9


def _row(kernel: str, unit: str, items: int, reps: int, wall_s: float,
         **extra) -> dict:
    """Uniform benchmark row: identity, scale, ns/op, throughput."""
    ops_per_s = items / wall_s if wall_s > 0 else float("inf")
    row = {
        "kernel": kernel,
        "unit": unit,
        "items": int(items),
        "reps": int(reps),
        "wall_s": wall_s,
        "ns_per_op": wall_s / items * 1e9 if items else 0.0,
        f"{unit}s_per_s": ops_per_s,
    }
    row.update(extra)
    return row


def _sample_points(config: ExperimentConfig, quick: bool, field
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic in-bounds query points + unit view dirs for a field."""
    count = 50_000 if quick else 200_000
    rng = np.random.default_rng(1234)
    lo, hi = field.bounds
    points = rng.uniform(size=(count, 3)) * (hi - lo) + lo
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return points, dirs


def _field_query_row(ctx: BenchContext, algorithm: str, reference_interp
                     ) -> dict:
    """Shared body of the per-algorithm field-query benchmarks."""
    renderer = build_renderer(algorithm, DEFAULT_SCENE, ctx.config)
    field = renderer.field
    points, dirs = _sample_points(ctx.config, ctx.quick, field)

    def query():
        features = field.interpolate(points)
        field.decode(features, dirs)

    wall = _time_reps(query, ctx.reps)
    extra = {}
    if reference_interp is not None:
        def query_reference():
            features = reference_interp(field, points)
            decode_reference(field.decoder, features, dirs)

        ref_wall = _time_reps(query_reference, max(1, ctx.reps // 2))
        extra["ns_per_op_reference"] = ref_wall / len(points) * 1e9
        extra["speedup_x"] = ref_wall / wall
    return _row(f"field_query.{algorithm}", "sample", len(points),
                ctx.reps, wall, **extra)


@register("field_query.directvoxgo")
def bench_field_query_voxel(ctx: BenchContext) -> dict:
    """Stage G+F on the dense voxel grid (gather + trilinear + decode)."""
    return _field_query_row(ctx, "directvoxgo", interpolate_voxel_reference)


@register("field_query.instant_ngp")
def bench_field_query_hash(ctx: BenchContext) -> dict:
    """Stage G+F on the multi-resolution hash grid (per-level gathers)."""
    return _field_query_row(ctx, "instant_ngp", interpolate_hash_reference)


@register("field_query.tensorf")
def bench_field_query_tensorf(ctx: BenchContext) -> dict:
    """Stage G+F on the factorised tensor (plane/vector gathers)."""
    return _field_query_row(ctx, "tensorf", None)


def _warp_inputs(ctx: BenchContext):
    """A rendered reference frame + target camera one window step ahead."""
    renderer = build_renderer(DEFAULT_ALGORITHM, DEFAULT_SCENE, ctx.config)
    camera = make_camera(ctx.config)
    trajectory, _ = ground_truth_sequence(DEFAULT_SCENE, ctx.config)
    reference, _ = SparwRenderer(renderer, camera).render_reference(
        trajectory.poses[0])
    target_camera = camera.with_pose(
        trajectory.poses[min(4, len(trajectory.poses) - 1)])
    return reference, camera.with_pose(reference.c2w), target_camera


@register("warp.gather")
def bench_warp_gather(ctx: BenchContext) -> dict:
    """SPARW steps 1-2: per-pixel depth lift + rigid transform."""
    reference, ref_camera, target_camera = _warp_inputs(ctx)
    transform = relative_pose(reference.c2w, target_camera.c2w)
    lift_depth = np.where(np.isfinite(reference.depth), reference.depth, 1e4)

    def gather():
        points = depth_to_points(lift_depth, ref_camera.intrinsics)
        transform_points(points, transform)

    wall = _time_reps(gather, ctx.reps)
    return _row("warp.gather", "pixel", lift_depth.size, ctx.reps, wall)


@register("warp.scatter")
def bench_warp_scatter(ctx: BenchContext) -> dict:
    """SPARW step 3 as ``warp_frame`` runs it (Eq. 3): project the lifted
    cloud, z-buffer its surface points, mark where void points land."""
    reference, ref_camera, target_camera = _warp_inputs(ctx)
    transform = relative_pose(reference.c2w, target_camera.c2w)
    is_void = ~np.isfinite(reference.depth)
    lift_depth = np.where(is_void, VOID_FAR_DEPTH, reference.depth)
    points = transform_points(
        depth_to_points(lift_depth, ref_camera.intrinsics), transform)

    wall = _time_reps(
        lambda: splat_surface(points, is_void.reshape(-1),
                              target_camera.intrinsics),
        ctx.reps)
    return _row("warp.scatter", "pixel", lift_depth.size, ctx.reps, wall)


@register("disocclusion.classify")
def bench_disocclusion(ctx: BenchContext) -> dict:
    """Pixel partition of a naive warp into warped/disoccluded/void."""
    reference, ref_camera, target_camera = _warp_inputs(ctx)
    warp = warp_frame(reference, ref_camera, target_camera)
    wall = _time_reps(lambda: classify_pixels(warp, 30.0), ctx.reps)
    return _row("disocclusion.classify", "pixel", warp.depth.size,
                ctx.reps, wall)


@register("volume.composite")
def bench_composite(ctx: BenchContext) -> dict:
    """Segmented alpha compositing over a synthetic flat sample stream."""
    num_rays = 2_000 if ctx.quick else 9_216
    per_ray = ctx.config.samples_per_ray
    rng = np.random.default_rng(7)
    count = num_rays * per_ray
    sigmas = rng.uniform(0.0, 50.0, size=count)
    rgbs = rng.uniform(size=(count, 3))
    t_values = np.tile(np.linspace(0.5, 4.0, per_ray), num_rays)
    deltas = np.full(count, 3.5 / per_ray)
    ray_index = np.repeat(np.arange(num_rays), per_ray)

    wall = _time_reps(
        lambda: composite(sigmas, rgbs, t_values, deltas, ray_index,
                          num_rays), ctx.reps)
    return _row("volume.composite", "sample", count, ctx.reps, wall)


@register("render_rays.full_frame")
def bench_render_rays(ctx: BenchContext) -> dict:
    """One full-frame ``render_rays`` call (sample + gather + decode +
    composite), with the reference-kernel path for the speedup column."""
    renderer = build_renderer(DEFAULT_ALGORITHM, DEFAULT_SCENE, ctx.config)
    camera = make_camera(ctx.config)
    trajectory, _ = ground_truth_sequence(DEFAULT_SCENE, ctx.config)
    origins, directions = camera.with_pose(trajectory.poses[0]).generate_rays()
    flat_o, flat_d = origins.reshape(-1, 3), directions.reshape(-1, 3)

    wall = _time_reps(lambda: renderer.render_rays(flat_o, flat_d), ctx.reps)
    baseline = reference_renderer(renderer)
    ref_wall = _time_reps(lambda: baseline.render_rays(flat_o, flat_d),
                          max(1, ctx.reps // 2))
    return _row("render_rays.full_frame", "ray", flat_o.shape[0], ctx.reps,
                wall, ns_per_op_reference=ref_wall / flat_o.shape[0] * 1e9,
                speedup_x=ref_wall / wall)


@register("engine.round")
def bench_engine_round(ctx: BenchContext) -> dict:
    """Batched multi-session engine rounds over a small heterogeneous mix."""
    from ..engine import MultiSessionEngine
    from ..workloads import build_mixed_sessions

    frames = 2 if ctx.quick else 4
    mix = "vr-lego:2,dolly-chair"
    reps = max(1, ctx.reps // 2)

    def serve():
        sessions = build_mixed_sessions(mix, ctx.config, frames=frames)
        return MultiSessionEngine(sessions, backend=ctx.backend,
                                  engine_workers=ctx.engine_workers).run()

    result = serve()  # warmup + work accounting
    timer = Timer()
    with activate(timer):
        wall = _time_reps(serve, reps)
    rays = result.batch.total_rays
    return _row("engine.round", "ray", rays, reps, wall,
                rounds=result.batch.rounds,
                frames_per_s=result.total_frames / wall,
                sections={r["section"]: round(r["total_ms"], 3)
                          for r in timer.report()})


@register("engine.round.scaling")
def bench_engine_scaling(ctx: BenchContext) -> list:
    """Multi-core scaling curve for the batched engine round.

    Serves the same heterogeneous mix serially (``workers=1``, the plain
    numpy path) and through the ``parallel`` backend's persistent worker
    pool at 2 and 4 workers (plus ``ctx.engine_workers`` when it names a
    different point), emitting one ``engine.round.workersN`` row per
    point with the serial-relative speedup, next to the ``workers`` and
    ``cores`` it was measured with.
    """
    import os

    from ..engine import MultiSessionEngine
    from ..workloads import build_mixed_sessions

    frames = 2 if ctx.quick else 4
    mix = "vr-lego:2,dolly-chair"
    reps = max(1, ctx.reps // 2)
    cores = os.cpu_count() or 1
    counts = [1, 2, 4]
    if ctx.engine_workers is not None and ctx.engine_workers not in counts:
        counts.append(ctx.engine_workers)

    rows = []
    serial_wall = None
    for workers in sorted(counts):
        def serve():
            sessions = build_mixed_sessions(mix, ctx.config, frames=frames)
            return MultiSessionEngine(
                sessions,
                backend=None if workers == 1 else "parallel",
                engine_workers=None if workers == 1 else workers).run()

        result = serve()  # warmup (pool spin-up, bake caches)
        wall = _time_reps(serve, reps)
        if serial_wall is None:
            serial_wall = wall
        rows.append(_row(
            f"engine.round.workers{workers}", "ray",
            result.batch.total_rays, reps, wall,
            backend="numpy" if workers == 1 else "parallel",
            workers=workers, cores=cores,
            frames_per_s=result.total_frames / wall,
            speedup_vs_serial=serial_wall / wall))
    return rows


@register("cluster.tick")
def bench_cluster_tick(ctx: BenchContext) -> dict:
    """Discrete-event cluster simulator ticks (admission + render + serve)."""
    from ..cluster import simulate_cluster

    duration = 2.0 if ctx.quick else 4.0
    reps = max(1, ctx.reps // 2)

    def run():
        return simulate_cluster("vr-lego:2,dolly-chair", ctx.config,
                                rate_hz=1.5, duration_s=duration,
                                workers=2, frames=2, seed=0)

    report = run()
    timer = Timer()
    with activate(timer):
        wall = _time_reps(run, reps)
    frames = max(report.total_frames, 1)
    return _row("cluster.tick", "frame", frames, reps, wall,
                admitted=report.admitted,
                aggregate_fps=report.aggregate_fps,
                sections={r["section"]: round(r["total_ms"], 3)
                          for r in timer.report()})


@register("single_session.sparw")
def bench_single_session(ctx: BenchContext) -> dict:
    """End-to-end single-session SPARW frames/s on the default scene.

    The headline number: renders the default orbit once on the optimized
    kernels and once with every hot kernel pinned to its
    :mod:`repro.perf.reference` predecessor, reporting both frames/s and
    the speedup (the acceptance bar for perf work is >= 2x here).
    """
    renderer = build_renderer(DEFAULT_ALGORITHM, DEFAULT_SCENE, ctx.config)
    camera = make_camera(ctx.config)
    trajectory, _ = ground_truth_sequence(DEFAULT_SCENE, ctx.config)
    poses = trajectory.poses
    num_frames = len(poses)

    def render():
        sparw = SparwRenderer(renderer, camera, window=ctx.config.window)
        return sparw.render_sequence(poses)

    timer = Timer()
    with activate(timer):
        wall = _time_reps(render, ctx.reps)

    baseline = reference_renderer(renderer)

    def render_reference():
        sparw = SparwRenderer(baseline, camera, window=ctx.config.window)
        return sparw.render_sequence(poses)

    with reference_geometry():
        ref_wall = _time_reps(render_reference, max(1, ctx.reps // 2))

    return _row("single_session.sparw", "frame", num_frames, ctx.reps, wall,
                frames_per_s=num_frames / wall,
                frames_per_s_reference=num_frames / ref_wall,
                ns_per_op_reference=ref_wall / num_frames * 1e9,
                speedup_x=ref_wall / wall,
                sections={r["section"]: round(r["total_ms"], 3)
                          for r in timer.report()})


def _best_of(fn, ctx: BenchContext, repeat: int) -> list:
    """Run one registered benchmark ``repeat`` times; keep the fastest.

    The fastest attempt (smallest total measured wall time) is the one
    least polluted by scheduler noise, so best-of-N is what lands in the
    artifact.  Benchmarks may return one row or a list of rows (the
    scaling curve); the winning attempt's rows are returned as a list.
    """
    best = None
    for _ in range(repeat):
        result = fn(ctx)
        rows = result if isinstance(result, list) else [result]
        total = sum(row["wall_s"] for row in rows)
        if best is None or total < best[0]:
            best = (total, rows)
    return best[1]


def run_benchmarks(config: ExperimentConfig | None = None,
                   quick: bool = False, kernels: list | None = None,
                   repeat: int = 3, backend: str | None = None,
                   engine_workers: int | None = None) -> tuple[list, dict]:
    """Run the registered microbenchmarks; returns ``(rows, extra)``.

    ``kernels`` restricts the run to a subset of registry names (unknown
    names raise ``KeyError``).  ``repeat`` runs every benchmark N times
    and keeps the fastest measurement (best-of-N).  ``backend`` (one of
    :data:`repro.backend.BACKENDS`) is where the engine-level benchmarks
    render and is recorded in every row's ``backend`` column;
    ``engine_workers`` sizes the ``parallel`` backend's pool for them.
    ``extra`` carries the environment fingerprint and run mode, and
    lands in ``BENCH_perf.json``'s ``extra`` block.
    """
    if config is None:
        config = FAST if quick else DEFAULT
    if kernels is None:
        kernels = registered_kernels()
    else:
        unknown = [k for k in kernels if k not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown benchmark kernels {unknown}; "
                           f"registered: {registered_kernels()}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1 (got {repeat})")
    backend = backend or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; one of {BACKENDS}")
    ctx = BenchContext(config=config, quick=quick, reps=2 if quick else 5,
                       backend=backend, engine_workers=engine_workers)
    rows = []
    for name in kernels:
        rows.extend(_best_of(REGISTRY[name], ctx, repeat))
    for row in rows:
        # The scaling curve labels its own rows (mixed serial/parallel);
        # everything else ran under the run-wide backend.
        row.setdefault("backend", backend)
        row["best_of"] = repeat
    extra = {
        "mode": "quick" if quick else "full",
        "environment": environment_fingerprint(),
        "kernels": list(kernels),
        "backend": backend,
        "repeat": repeat,
    }
    # Rows keep their per-kernel "sections" breakdown (sourced from the
    # observability backbone's section timer) — compare_bench.py only
    # diffs ns_per_op, and the CLI table excludes the column.
    return rows, extra
