"""Multi-session serving experiment: N users, one SoC, batched rendering.

Builds N viewing sessions from declarative :class:`WorkloadSpec`\\ s —
either a named mix (``--workload vr-lego:3 --workload dolly-chair``) or the
legacy scene/algorithm cycling — serves them through the batched
:class:`~repro.engine.MultiSessionEngine` with the shared cross-session
reference cache attached, and prices the result with the aggregate
throughput model.  This is the workload behind
``python -m repro.harness.cli serve``.
"""

from __future__ import annotations

from ..engine import MultiSessionEngine, make_scheduler
from ..hw.serving import aggregate_serving
from ..hw.soc import SoCModel
from ..workloads import (
    FIELD_CACHE,
    REFERENCE_CACHE,
    WorkloadSpec,
    apply_slo,
    build_mixed_sessions,
    cache_report,
)
from .configs import DEFAULT, ExperimentConfig
from .pricing import frame_economics

__all__ = ["legacy_mix", "build_sessions", "run_serve"]


def legacy_mix(num_sessions: int, scene_names: tuple = ("lego",),
               algorithm: str = "directvoxgo",
               frames: int | None = None,
               window: int | None = None,
               fps_target: float = 30.0) -> list:
    """The pre-workload-registry serve shape as a list of (spec, count).

    N sessions cycling over ``scene_names``, each on its own orbit with
    start angles spread around the circle so every user sees different
    content (no two sessions share reference renders — the cache-free
    worst case the workload registry's duplicated mixes contrast with).
    """
    if num_sessions < 1:
        raise ValueError("num_sessions must be >= 1")
    mix = []
    for i in range(num_sessions):
        scene = scene_names[i % len(scene_names)]
        spec = WorkloadSpec.make(
            f"user{i:02d}-{scene}", scene=scene, algorithm=algorithm,
            trajectory="orbit", frames=frames, window=window,
            fps_target=fps_target,
            start_angle_deg=360.0 * i / num_sessions)
        mix.append((spec, 1))
    return mix


def build_sessions(config: ExperimentConfig, num_sessions: int,
                   scene_names: tuple = ("lego",),
                   algorithm: str = "directvoxgo",
                   frames: int | None = None,
                   window: int | None = None,
                   fps_target: float = 30.0) -> list:
    """Engine sessions for the legacy scene-cycling serve shape."""
    return build_mixed_sessions(
        legacy_mix(num_sessions, scene_names=scene_names,
                   algorithm=algorithm, frames=frames, window=window,
                   fps_target=fps_target),
        config)


def run_serve(config: ExperimentConfig = DEFAULT, sessions: int = 8,
              scheduler: str = "round_robin", variant: str = "cicero",
              frames: int | None = None, scene_names: tuple = ("lego",),
              algorithm: str = "directvoxgo",
              workloads=None, use_cache: bool = True,
              seed: int | None = None, governor: str = "off",
              slo_fps: float | None = None,
              ray_budget: int | None = None,
              backend: str | None = None,
              engine_workers: int | None = None) -> tuple:
    """Serve concurrent users; returns (per-session rows, summary).

    ``backend`` selects where the engine renders (see
    :mod:`repro.backend`); ``engine_workers`` sizes the ``parallel``
    backend's pool.  Serving output is bit-identical across ``numpy``
    and ``parallel``.

    ``workloads`` selects a named mix (``"vr-lego:3,dolly-chair"``, a list
    of ``NAME[:N]`` items, or ``(spec, count)`` pairs); when ``None`` the
    legacy ``sessions``/``scene_names``/``algorithm`` cycling is used.
    ``use_cache`` attaches the process-global, byte-bounded reference
    cache (serving stays bit-identical either way; only the work
    changes).  Because the cache outlives the run, repeating a serve in
    one process re-serves its references from the cache — legacy-path
    runs, whose sessions are all distinct, only benefit from this
    cross-run reuse.  ``seed`` offsets every spec's trajectory seed (the
    CLI's ``--seed``) so stochastic trajectories resample reproducibly.

    ``governor`` attaches the engine-layer SLO quality governor
    (``static``/``adaptive``; ``slo_fps`` overrides every workload's SLO)
    and, together with ``ray_budget``, splits the per-round ray budget by
    the governor's weights so lagging sessions pull a larger share.

    The scheduler choice also picks the matching within-round service
    order for the latency simulation: round-robin serves in arrival order,
    deadline serves shortest-job-first to shave the tail.
    """
    if workloads is not None:
        mix = workloads
    else:
        mix = legacy_mix(sessions, scene_names=scene_names,
                         algorithm=algorithm)
    # One SLO source: rewrite the specs, then everything (governor
    # included) reads spec.slo_latency_s.
    mix = apply_slo(mix, slo_fps)
    field_before = FIELD_CACHE.stats.snapshot()
    reference_before = REFERENCE_CACHE.stats.snapshot()

    engine_governor = None
    build = None
    if governor != "off":
        from ..control import EngineGovernor, build_level_session
        engine_governor = EngineGovernor(
            config, mode=governor,
            soc=SoCModel(feature_dim=config.feature_dim))
        if governor == "static":
            # Static pinning happens at build time, so even the first
            # frame renders at the min_quality_tier rung.
            def build(spec, session_id, config):
                return build_level_session(spec, session_id, config,
                                           spec.max_quality_level)
    built = build_mixed_sessions(mix, config, frames=frames, seed=seed,
                                 build=build)
    engine = MultiSessionEngine(
        built, scheduler=make_scheduler(scheduler),
        ray_budget=ray_budget,
        reference_cache=REFERENCE_CACHE if use_cache else None,
        governor=engine_governor, backend=backend,
        engine_workers=engine_workers)
    result = engine.run()

    # Per-session variants: each spec prices under its own SoC variant
    # (the legacy path keeps the caller's single variant).  Every session
    # carries its spec, so the mapping never depends on build order.
    session_variants = {
        s.session_id: (s.workload.variant if workloads is not None
                       and s.workload is not None else variant)
        for s in built}

    soc = SoCModel(feature_dim=config.feature_dim)
    order = "sjf" if scheduler == "deadline" else "arrival"
    report = aggregate_serving(
        {s.session_id: s.result for s in result.sessions},
        soc=soc, variant=variant, order=order,
        variants=session_variants,
        cache_stats=cache_report(field_since=field_before,
                                 reference_since=reference_before))

    rows = []
    for session, stats in zip(result.sessions, report.per_session):
        row = {
            "session": stats.session_id,
            "frames": stats.frames,
            "references": stats.references,
            "disoccluded": session.result.mean_disoccluded_fraction(),
            "solo_fps": stats.solo_fps,
            "utilization": stats.utilization,
            "mean_latency_ms": stats.mean_latency_s * 1e3,
            "p95_latency_ms": stats.p95_latency_s * 1e3,
        }
        if engine_governor is not None:
            row["quality_level"] = session.quality_level
        rows.append(row)
    batch = result.batch
    ref_cache = report.cache["references"]
    variants_used = sorted({session_variants.get(s.session_id, variant)
                            for s in result.sessions})
    summary = {
        "sessions": report.num_sessions,
        "scheduler": scheduler,
        "variant": (variants_used[0] if len(variants_used) == 1
                    else "mixed"),
        "cache_enabled": use_cache,
        "total_frames": report.total_frames,
        "aggregate_fps": report.aggregate_fps,
        "mean_latency_ms": report.mean_latency_s * 1e3,
        "p50_latency_ms": report.p50_latency_s * 1e3,
        "p95_latency_ms": report.p95_latency_s * 1e3,
        "p99_latency_ms": report.p99_latency_s * 1e3,
        "worst_latency_ms": report.worst_latency_s * 1e3,
        # $/frame prices the serialized SoC makespan: one shared SoC is
        # occupied end-to-end while the batch drains.
        **frame_economics(report.total_frames, report.total_energy_j,
                          report.makespan_s),
        "nerf_calls": batch.nerf_calls,
        "requests_per_call": batch.requests_per_call,
        "total_rays": batch.total_rays,
        "mean_batch_rays": batch.mean_batch_rays,
        "max_batch_rays": batch.max_batch_rays,
        "rounds": batch.rounds,
        "ref_cache_hits": ref_cache["hits"],
        "ref_cache_misses": ref_cache["misses"],
        "ref_cache_hit_rate": ref_cache["hit_rate"],
        "ref_cache_evictions": ref_cache["evictions"],
        "cache": report.cache,
    }
    if engine_governor is not None:
        summary.update(engine_governor.summary())
        summary["ray_budget"] = ray_budget
    return rows, summary
