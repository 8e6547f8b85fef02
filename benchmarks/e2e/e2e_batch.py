"""The five in-process workloads: solo_sparw, solo_dense, serve_mix,
serve_par2, cluster_sim.

Every layer is measured from outside, by timing calls into its public
functions.  A workload is a fixed *pass* (the same work every time)
repeated for the requested number of seconds; every end-to-end number
is the median over passes.  The seed reaches the program only as
generated inputs (the trajectory ``seed_offset`` and the simulator's
arrival seed).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from e2e_common import (
    Spans,
    WorkloadResult,
    digest_of_digests,
    driver_peak_rss_mb,
    median,
)
from repro.cluster import simulate_cluster
from repro.core.sparw.disocclusion import classify_pixels
from repro.core.sparw.pipeline import RayRequest
from repro.core.sparw.warp import warp_frame
from repro.engine import MultiSessionEngine
from repro.engine.session import RenderSession
from repro.harness.configs import DEFAULT, FAST, make_camera
from repro.hw.serving import aggregate_serving
from repro.hw.soc import SoCModel
from repro.nerf.renderer import NeRFRenderer
from repro.nerf.volume_render import composite
from repro.server.protocol import frame_digest
from repro.workloads import (
    FIELD_CACHE,
    SharedLRUCache,
    build_mixed_sessions,
    get_workload,
    parse_mix,
)

now = time.perf_counter

SERVE_MIX = ("vr-lego:4", "dolly-chair:2", "vr-headshake:2", "orbit-ngp:1",
             "sparse-ignatius:1")
CLUSTER_MIX = "vr-lego:4,dolly-chair:2,vr-headshake:1"
PAR_WORKERS = 2


@dataclass(frozen=True)
class Sizing:
    """How much work one pass holds (definitions never change, sizes do).

    The full sizes are half the frame counts the issue measured on a
    2-core host, and three passes instead of seven: ``4 + 22 x 7`` driver
    runs share 3420 s, and a DEFAULT-scale set-up alone (bakes) is 11 s.
    """

    config: object
    solo_plan: tuple  # (workload name, SPARW frames, dense frames) per session
    serve_frames: int
    cluster_duration_scale: float
    min_passes: int
    # Two workers and the driver share two cores, so a serve_par2 pass
    # repeats within 15 % where the others repeat within 5 %: over ten runs
    # its medians spread 17-24 % with four passes and 10 % with eight.
    par2_min_passes: int


FULL = Sizing(
    config=DEFAULT,
    solo_plan=(("vr-lego", 16, 3), ("dolly-chair", 16, 3),
               ("orbit-ngp", 8, 1), ("sparse-ignatius", 4, 2)),
    serve_frames=6,
    cluster_duration_scale=1.0,
    min_passes=3,
    par2_min_passes=8,
)
SMOKE = Sizing(
    config=FAST,
    solo_plan=tuple((name, 2, 1) for name, _, _ in FULL.solo_plan),
    serve_frames=2,
    cluster_duration_scale=0.2,
    min_passes=2,
    par2_min_passes=2,
)


def warm_up_sizing(sizing: Sizing) -> Sizing:
    """The untimed warm-up pass: every session of a pass, two frames each.

    Two frames run every code path of a session (reference render, warp,
    sparse fill) and ship every field to the parallel workers; a full
    pass would add 2 s of set-up to each of the driver's runs.
    cluster_sim warms up at full size instead, because which catalog
    variants its pass bakes depends on the whole arrival draw.  (The
    first timed serve_par2 pass runs 1.2-1.4 x slower than the later ones
    after a short warm-up and after a full one alike; the median over its
    eight passes does not see it.)
    """
    return dataclasses.replace(
        sizing, solo_plan=SMOKE.solo_plan, serve_frames=SMOKE.serve_frames)


def cluster_cells(scale: float) -> tuple:
    """The three ``simulate_cluster`` cells of one cluster_sim pass."""
    return (
        ("base", dict(placement="least_loaded", workers=4, rate_hz=4.0,
                      duration_s=10.0 * scale, frames=8)),
        ("sharded", dict(placement="shard_affinity", workers=4, rate_hz=4.0,
                         duration_s=10.0 * scale, frames=8, catalog=40,
                         zipf=1.1, replication=2)),
        ("governed", dict(governor="adaptive", workers=2, rate_hz=8.0,
                          duration_s=5.0 * scale, frames=8)),
    )


def solo_plan(sizing: Sizing, seed: int) -> list:
    """``[(spec, dense frames)]``: the seed orders the sessions of a pass.

    The seed is also each spec's trajectory ``seed_offset``; the named
    specs' trajectories are deterministic, so that changes their cache
    identity and not their pixels.
    """
    order = np.random.default_rng(seed).permutation(len(sizing.solo_plan))
    return [(get_workload(name).with_overrides(frames=frames,
                                               seed_offset=seed), dense)
            for name, frames, dense in (sizing.solo_plan[i] for i in order)]


def serve_mix(seed: int) -> list:
    """The serve mix, its entries (so the engine's sessions) in seeded order."""
    order = np.random.default_rng(seed).permutation(len(SERVE_MIX))
    return [SERVE_MIX[i] for i in order]


@dataclass
class PassRecord:
    """One pass: its wall time, what it produced, and (traced) its layers."""

    wall_s: float
    frames: int
    sessions: int
    ttff_ms: list
    stream_ms: list
    digests: list
    layers: dict = field(default_factory=dict)
    check: object = None  # extra exact-repeat payload (cluster summaries)


# -- driving the program's public calls ---------------------------------------------


def drive_sparw(sparw, poses, spans=None, parent=None, op=None,
                captured=None):
    """Drive ``SparwRenderer.step`` exactly as ``render_sequence`` does.

    Returns ``(records, frame_done_s)``.  With ``spans`` every generator
    resume is a ``sparw.step`` span and every ray answer a ``nerf.render``
    span; ``captured`` collects ``(request, output)`` for the stage replay.
    """
    gen = sparw.step(poses)
    render_rays = sparw.renderer.render_rays
    records, done_s, send_value = [], [], None
    while True:
        t0 = now()
        try:
            event = gen.send(send_value)
        except StopIteration:
            return records, done_s
        t1 = now()
        if spans is not None:
            spans.add("sparw.step", t0, t1, parent, op)
        if isinstance(event, RayRequest):
            send_value = render_rays(event.origins, event.directions)
            if spans is not None:
                spans.add("nerf.render", t1, now(), parent, op)
                captured.append((event, send_value))
        else:
            records.append(event)
            done_s.append(t1)
            send_value = None


def replay_nerf_stages(renderer, bundles, spans, parent) -> None:
    """Re-run captured ray bundles through the public stage calls.

    ``sampler.sample`` -> ``field.interpolate`` -> ``field.decode`` ->
    ``volume_render.composite`` over the renderer's own chunking, one
    span per call; this is where ``nerf.sample_s`` etc. come from.
    """
    bounds = renderer.field.bounds
    for origins, directions in bundles:
        for start in range(0, origins.shape[0], renderer.chunk_size):
            stop = start + renderer.chunk_size
            t0 = now()
            samples = renderer.sampler.sample(origins[start:stop],
                                              directions[start:stop], bounds)
            t1 = now()
            spans.add("nerf.sample", t0, t1, parent)
            if len(samples) == 0:
                continue
            features = renderer.field.interpolate(samples.positions)
            t2 = now()
            sigma, rgb = renderer.field.decode(features, samples.directions)
            t3 = now()
            composite(sigma, rgb, samples.t_values, samples.deltas,
                      samples.ray_index, samples.num_rays)
            spans.add("nerf.interpolate", t1, t2, parent)
            spans.add("nerf.decode", t2, t3, parent)
            spans.add("nerf.composite", t3, now(), parent)


def replay_warp_classify(sparw, poses, records, captured, spans,
                         parent) -> None:
    """Re-run each target frame's ``warp_frame`` / ``classify_pixels``."""
    references = {}
    for request, output in captured:
        if request.kind == "reference":
            camera = sparw.camera.with_pose(request.pose)
            references[request.frame_index] = sparw.renderer.compose_frame(
                camera, request.directions, output)
    reference = None
    for record in records:
        reference = references.get(record.frame_index, reference)
        t0 = now()
        warp = warp_frame(reference, sparw.camera.with_pose(reference.c2w),
                          sparw.camera.with_pose(poses[record.frame_index]))
        t1 = now()
        classify_pixels(warp, sparw.angle_threshold_deg)
        spans.add("sparw.warp", t0, t1, parent)
        spans.add("sparw.classify", t1, now(), parent)


def _sum_named(spans: Spans, first_row: int) -> dict:
    """Inclusive seconds and calls per span name from ``first_row`` on."""
    tail = Spans(rows=spans.rows[first_row:])
    return tail.total_by_name()


def _nerf_stage_layers(totals: dict, render_s: float) -> dict:
    stages = {stage: totals.get(f"nerf.{stage}", (0.0, 0))[0]
              for stage in ("sample", "interpolate", "decode", "composite")}
    layers = {f"nerf.{stage}_s": seconds for stage, seconds in stages.items()}
    layers["nerf.other_s"] = render_s - sum(stages.values())
    return layers


def _stats_layers(stats_list: list, render_s: float, calls: int) -> dict:
    """``nerf.*`` counts from ``RenderStats`` (computed, not measured)."""
    rays = sum(s.num_rays for s in stats_list)
    return {
        "nerf.render_s": render_s,
        "nerf.calls": calls,
        "nerf.rays": rays,
        "nerf.samples": sum(s.num_samples for s in stats_list),
        "nerf.ns_per_ray": render_s * 1e9 / rays if rays else 0.0,
        "nerf.gather_bytes": sum(s.gather_bytes for s in stats_list),
        "nerf.mlp_macs": sum(s.mlp_macs for s in stats_list),
    }


def _sparw_layers(records: list) -> dict:
    """``sparw.*`` / ``nerf.rays_*`` counts from target-frame records."""
    references = [r.reference_stats for r in records
                  if r.reference_stats is not None]
    return {
        "sparw.frames": len(records),
        "sparw.references": len(references),
        "sparw.warped_fraction": float(np.mean(
            [r.classification.warped_fraction for r in records])),
        "sparw.disoccluded_fraction": float(np.mean(
            [r.classification.disoccluded_fraction for r in records])),
        "nerf.rays_reference": sum(s.num_rays for s in references),
        "nerf.rays_sparse": sum(r.sparse_stats.num_rays for r in records),
    }


def _field_cache_layers(before) -> dict:
    delta = FIELD_CACHE.stats.since(before)
    return {"field_cache.hits": delta.hits, "field_cache.misses": delta.misses}


# -- solo_sparw ----------------------------------------------------------------------


def sparw_pass(plan: list, config, spans: Spans | None) -> PassRecord:
    """Every spec of the plan, one session at a time, through ``step``."""
    field_before = FIELD_CACHE.stats.snapshot()
    first_row = len(spans.rows) if spans is not None else 0
    root = spans.open("pass") if spans is not None else None
    ttff_ms, stream_ms, frames, records_all, replays = [], [], [], [], []
    ref_ms, warp_ms = [], []
    pass_start = now()
    for spec, _ in plan:
        due = now()
        parent = (spans.open("session", root, spec.name)
                  if spans is not None else None)
        sparw = spec.build_sparw(config)
        poses = spec.build_trajectory(config).poses
        captured = [] if spans is not None else None
        records, done_s = drive_sparw(sparw, poses, spans, parent, spec.name,
                                      captured)
        if spans is not None:
            spans.close(parent)
            replays.append((sparw, poses, records, captured))
        ttff_ms.append((done_s[0] - due) * 1e3)
        stream_ms.append((done_s[-1] - due) * 1e3)
        for record, t_done, t_prev in zip(records, done_s, [due] + done_s):
            (ref_ms if record.new_reference else warp_ms).append(
                (t_done - t_prev) * 1e3)
        frames.extend(r.frame for r in records)
        records_all.extend(records)
    wall_s = now() - pass_start
    layers = {}
    if spans is not None:
        spans.close(root)
        totals = _sum_named(spans, first_row)
        replay_root = spans.open("replay")
        replay_first = len(spans.rows)
        for sparw, poses, records, captured in replays:
            replay_nerf_stages(
                sparw.renderer,
                [(req.origins, req.directions) for req, _ in captured],
                spans, replay_root)
            replay_warp_classify(sparw, poses, records, captured, spans,
                                 replay_root)
        spans.close(replay_root)
        replayed = _sum_named(spans, replay_first)
        render_s, calls = totals.get("nerf.render", (0.0, 0))
        stats = [out.stats for _, _, _, cap in replays for _, out in cap]
        layers = {
            **_stats_layers(stats, render_s, calls),
            **_nerf_stage_layers(replayed, render_s),
            **_sparw_layers(records_all),
            **_field_cache_layers(field_before),
            "sparw.step_s": totals.get("sparw.step", (0.0, 0))[0],
            "sparw.warp_s": replayed.get("sparw.warp", (0.0, 0))[0],
            "sparw.classify_s": replayed.get("sparw.classify", (0.0, 0))[0],
            "sparw.ref_frame_ms_p50": median(ref_ms),
            "sparw.warp_frame_ms_p50": median(warp_ms),
        }
    return PassRecord(wall_s=wall_s, frames=len(frames), sessions=len(plan),
                      ttff_ms=ttff_ms, stream_ms=stream_ms,
                      digests=[frame_digest(f) for f in frames],
                      layers=layers)


# -- solo_dense ----------------------------------------------------------------------


def dense_pass(plan: list, config, spans: Spans | None) -> PassRecord:
    """The same specs and trajectories, every frame a full ``render_frame``."""
    field_before = FIELD_CACHE.stats.snapshot()
    first_row = len(spans.rows) if spans is not None else 0
    root = spans.open("pass") if spans is not None else None
    ttff_ms, stream_ms, frames, stats, replays = [], [], [], [], []
    pass_start = now()
    for spec, count in plan:
        due = now()
        parent = (spans.open("session", root, spec.name)
                  if spans is not None else None)
        renderer = spec.build_renderer(config)
        camera = make_camera(spec.resolve_config(config))
        poses = spec.build_trajectory(config).poses
        picks = np.linspace(0, len(poses) - 1, count).round().astype(int)
        done_s = []
        for index in picks:
            t0 = now()
            posed = camera.with_pose(poses[index])
            frame, out = renderer.render_frame(posed)
            done_s.append(now())
            frames.append(frame)
            stats.append(out.stats)
            if spans is not None:
                spans.add("nerf.render", t0, done_s[-1], parent, spec.name)
                replays.append((renderer, posed))
        if spans is not None:
            spans.close(parent)
        ttff_ms.append((done_s[0] - due) * 1e3)
        stream_ms.append((done_s[-1] - due) * 1e3)
    wall_s = now() - pass_start
    layers = {}
    if spans is not None:
        spans.close(root)
        render_s, calls = _sum_named(spans, first_row)["nerf.render"]
        replay_root = spans.open("replay")
        replay_first = len(spans.rows)
        for renderer, posed in replays:
            origins, directions = posed.generate_rays()
            replay_nerf_stages(renderer, [(origins.reshape(-1, 3),
                                           directions.reshape(-1, 3))],
                               spans, replay_root)
        spans.close(replay_root)
        layers = {
            **_stats_layers(stats, render_s, calls),
            **_nerf_stage_layers(_sum_named(spans, replay_first), render_s),
            **_field_cache_layers(field_before),
            "nerf.rays_reference": sum(s.num_rays for s in stats),
        }
    return PassRecord(wall_s=wall_s, frames=len(frames), sessions=len(plan),
                      ttff_ms=ttff_ms, stream_ms=stream_ms,
                      digests=[frame_digest(f) for f in frames],
                      layers=layers)


# -- serve_mix / serve_par2 ----------------------------------------------------------


class _TimedRenderer(NeRFRenderer):
    """The engine's ``nerf`` input with its batched call timed from outside.

    Same field, sampler and chunking as the renderer it stands in for, so
    the engine groups and batches sessions exactly as it would without it.
    """

    def __init__(self, inner: NeRFRenderer, log: list):
        super().__init__(inner.field, inner.sampler,
                         background=inner.background,
                         chunk_size=inner.chunk_size,
                         opacity_threshold=inner.opacity_threshold,
                         backend=inner.backend)
        self.log = log

    def render_ray_batch(self, bundles: list) -> list:
        t0 = now()
        outputs = super().render_ray_batch(bundles)
        self.log.append(("nerf.render", t0, now(), (self, bundles, outputs)))
        return outputs


class _TimedSession(RenderSession):
    """A session whose ``deliver`` (warp/classify/assemble) is timed."""

    log: list  # set by the builder before the engine first delivers

    def deliver(self, output) -> None:
        t0 = now()
        super().deliver(output)
        self.log.append(("session.deliver", t0, now(), self.session_id))


def _timed_builder(log: list, time_nerf: bool):
    """``build=`` hook for ``build_mixed_sessions`` (traced passes only)."""
    renderers: dict = {}

    def build(spec, session_id, config):
        sparw = spec.build_sparw(config)
        if time_nerf:
            inner = sparw.renderer
            if id(inner) not in renderers:
                renderers[id(inner)] = _TimedRenderer(inner, log)
            sparw.renderer = renderers[id(inner)]
        session = _TimedSession(
            session_id, sparw, spec.build_trajectory(config).poses,
            fps_target=spec.fps_target, cache_key=spec.cache_key(config),
            workload=spec)
        session.log = log
        return session

    return build


def serve_pass(sizing: Sizing, seed: int, backend: str | None,
               spans: Spans | None, observe=None) -> PassRecord:
    """build_mixed_sessions -> MultiSessionEngine.run -> aggregate_serving."""
    config = sizing.config
    field_before = FIELD_CACHE.stats.snapshot()
    cache = SharedLRUCache(name="e2e-references", max_entries=256,
                           max_bytes=64 << 20)
    log: list = []
    build = (_timed_builder(log, time_nerf=backend is None)
             if spans is not None else None)
    t0 = now()
    sessions = build_mixed_sessions(serve_mix(seed), config,
                                    frames=sizing.serve_frames, seed=seed,
                                    build=build)
    t1 = now()
    engine = MultiSessionEngine(
        sessions, reference_cache=cache, backend=backend,
        engine_workers=PAR_WORKERS if backend == "parallel" else None)
    result = engine.run()
    t2 = now()
    report = aggregate_serving(
        {s.session_id: s.result for s in result.sessions},
        soc=SoCModel(feature_dim=config.feature_dim),
        variants={s.session_id: s.workload.variant for s in sessions})
    t3 = now()
    wall_ms = (t3 - t0) * 1e3
    digests = [frame_digest(record.frame) for s in result.sessions
               for record in s.result.records]
    layers = {}
    if spans is not None:
        root = spans.add("pass", t0, t3)
        spans.add("workloads.build", t0, t1, root)
        run = spans.add("engine.run", t1, t2, root)
        spans.add("hw.price", t2, t3, root)
        nerf_s = deliver_s = 0.0
        bundles, stats = [], []
        for name, start, end, payload in log:
            if name == "nerf.render":
                spans.add(name, start, end, run)
                nerf_s += end - start
                renderer, batch, outputs = payload
                bundles.append((renderer, batch))
                stats.extend(out.stats for out in outputs)
            else:
                spans.add(name, start, end, run, payload)
                deliver_s += end - start
        calls = len(bundles)
        replayed = {}
        if bundles:
            replay_root = spans.open("replay")
            replay_first = len(spans.rows)
            for renderer, batch in bundles:
                flat = [(np.concatenate([o for o, _ in batch]),
                         np.concatenate([d for _, d in batch]))]
                replay_nerf_stages(renderer, flat, spans, replay_root)
            spans.close(replay_root)
            replayed = _sum_named(spans, replay_first)
        records = [r for s in result.sessions for r in s.result.records]
        ref = cache.report()
        batch_stats = result.batch
        layers = {
            **(_stats_layers(stats, nerf_s, calls) if bundles else {}),
            **(_nerf_stage_layers(replayed, nerf_s) if bundles else {}),
            **_sparw_layers(records),
            **_field_cache_layers(field_before),
            "workloads.build_s": t1 - t0,
            "ref_cache.hits": ref["hits"],
            "ref_cache.misses": ref["misses"],
            "ref_cache.hit_rate": ref["hit_rate"],
            "ref_cache.evictions": ref["evictions"],
            "ref_cache.bytes": ref["bytes"],
            "engine.run_s": t2 - t1,
            "engine.self_s": (t2 - t1) - nerf_s - deliver_s,
            "engine.deliver_s": deliver_s,
            "engine.rounds": batch_stats.rounds,
            "engine.nerf_calls": batch_stats.nerf_calls,
            "engine.requests_per_call": batch_stats.requests_per_call,
            "engine.mean_batch_rays": batch_stats.mean_batch_rays,
            "engine.cache_hits": batch_stats.cache_hits,
            "engine.rays_rendered": batch_stats.total_rays,
            "hw.price_s": t3 - t2,
            # Modelled SoC statistics (simulated time, not host time).
            "hw.soc_frames_per_s": report.aggregate_fps,
            "hw.soc_p95_latency_ms": report.p95_latency_s * 1e3,
            "hw.soc_mj_per_frame": (report.total_energy_j * 1e3
                                    / max(report.total_frames, 1)),
        }
    # A blocking batch drain shows the caller nothing before it returns:
    # every session's first and last frame become visible at t3.
    return PassRecord(wall_s=t3 - t0, frames=result.total_frames,
                      sessions=len(sessions), ttff_ms=[wall_ms],
                      stream_ms=[wall_ms], digests=digests, layers=layers)


def serve_expected_digests(sizing: Sizing, seed: int) -> list:
    """Per-frame digests of every session's spec rendered solo in-process."""
    expected = []
    for spec, count in parse_mix(serve_mix(seed)):
        spec = spec.with_overrides(frames=sizing.serve_frames,
                                   seed_offset=seed)
        solo = [frame_digest(f) for f in spec.run_solo(sizing.config).frames]
        expected.extend(solo * count)
    return expected


# -- cluster_sim ---------------------------------------------------------------------


def cluster_pass(sizing: Sizing, seed: int, spans: Spans | None) -> PassRecord:
    """Three ``simulate_cluster`` cells; simulated statistics must repeat."""
    root = spans.open("pass") if spans is not None else None
    summaries, reports = [], {}
    frames = sessions = 0
    pass_start = now()
    for name, kwargs in cluster_cells(sizing.cluster_duration_scale):
        t0 = now()
        report = simulate_cluster(CLUSTER_MIX, FAST, seed=seed, **kwargs)
        if spans is not None:
            spans.add("cluster.run", t0, now(), root, name)
        summaries.append(report.summary())
        reports[name] = report
        frames += report.total_frames
        sessions += report.arrivals_total
    wall_s = now() - pass_start
    layers = {}
    if spans is not None:
        spans.close(root)
        layers = _cluster_layers(sizing, seed, reports, wall_s, spans)
    per_session_ms = wall_s * 1e3 / sessions
    return PassRecord(wall_s=wall_s, frames=frames, sessions=sessions,
                      ttff_ms=[per_session_ms], stream_ms=[per_session_ms],
                      digests=[], layers=layers, check=summaries)


def _cluster_layers(sizing: Sizing, seed: int, reports: dict, run_s: float,
                    spans: Spans) -> dict:
    """Replay the arrival draw and catalog expansion; read exact counts."""
    from repro.cluster.arrivals import make_arrivals
    from repro.distribution import expand_field_serving
    cells = dict(cluster_cells(sizing.cluster_duration_scale))
    replay_root = spans.open("replay")
    t0 = now()
    for kwargs in cells.values():
        if "catalog" not in kwargs:
            make_arrivals("poisson", CLUSTER_MIX, rate_hz=kwargs["rate_hz"],
                          duration_s=kwargs["duration_s"], seed=seed)
    t1 = now()
    sharded = cells["sharded"]
    expand_field_serving(CLUSTER_MIX, FAST, sharded["catalog"],
                         zipf=sharded["zipf"],
                         replication=sharded["replication"], seed=seed)
    t2 = now()
    spans.add("cluster.arrivals", t0, t1, replay_root)
    spans.add("distribution.expand", t1, t2, replay_root)
    spans.close(replay_root)
    base = reports["base"]
    distribution = reports["sharded"].distribution
    return {
        "cluster.run_s": run_s,
        "cluster.arrivals_s": t1 - t0,
        "distribution.expand_s": t2 - t1,
        # Simulated (virtual-clock) statistics: exact, must not move
        # when only the simulator gets faster.
        "cluster.admitted": sum(r.admitted for r in reports.values()),
        "cluster.rejected": sum(r.rejected for r in reports.values()),
        "cluster.sim_ttff_p95_ms": base.ttff_p95_s * 1e3,
        "cluster.sim_p99_ms": base.p99_latency_s * 1e3,
        "cluster.ref_hit_rate": base.ref_cache_hit_rate,
        "distribution.hierarchy_hit_rate": distribution["hierarchy_hit_rate"],
        "distribution.bakes": distribution["field_bakes"],
        # Tier-2 hits: an on-box replica or a transfer from an owner.
        "distribution.transfers": distribution["field_shard_hits"],
        "control.tier_transitions": reports["governed"].tier_transitions,
    }


# -- running a workload ---------------------------------------------------------------


def _count_failures(passes: list, expected: list | None) -> int:
    """Frames whose digest differs from the reference (first pass unless
    ``expected`` is given), plus every frame of a pass of the wrong size."""
    reference = expected if expected is not None else passes[0].digests
    failed = 0
    for record in passes:
        if len(record.digests) != len(reference):
            failed += max(len(record.digests), len(reference))
            continue
        failed += sum(a != b for a, b in zip(record.digests, reference))
    return failed


def run_batch_workload(name: str, seed: int, seconds: float, trace: bool,
                       smoke: bool, process_start_s: float) -> WorkloadResult:
    """Set up, warm up, then run ``name``'s passes for ``seconds``."""
    sizing = SMOKE if smoke else FULL
    result = WorkloadResult(workload=name)
    if name == "serve_par2" and (os.cpu_count() or 1) < PAR_WORKERS:
        result.skipped = (f"serve_par2 needs {PAR_WORKERS} cores, this host "
                          f"has {os.cpu_count()}")
        return result
    expected = None
    setup_layers = {}

    # Set-up: cold bakes, expected digests, pool start, one untimed pass.
    bake_start = now()
    if name in ("solo_sparw", "solo_dense"):
        # Bakes run in the plan's written order whatever the seed: the
        # order of the big transient allocations decides peak_rss_mb.
        for spec_name, _, _ in sizing.solo_plan:
            get_workload(spec_name).build_renderer(sizing.config)
        one_pass = sparw_pass if name == "solo_sparw" else dense_pass

        def run_pass(size, spans):
            return one_pass(solo_plan(size, seed), size.config, spans)
    elif name in ("serve_mix", "serve_par2"):
        backend = "parallel" if name == "serve_par2" else None
        for spec, _ in parse_mix(SERVE_MIX):
            spec.build_renderer(sizing.config)
        setup_layers["workloads.bake_s"] = now() - bake_start
        expected = serve_expected_digests(sizing, seed)
        if backend == "parallel":
            from repro.backend.parallel import get_pool
            pool_start = now()
            get_pool(PAR_WORKERS)
            setup_layers["backend.pool_start_s"] = now() - pool_start

        def run_pass(size, spans):
            return serve_pass(size, seed, backend, spans)
    elif name == "cluster_sim":
        def run_pass(size, spans):
            return cluster_pass(size, seed, spans)
    else:
        raise KeyError(name)
    if name != "cluster_sim":  # its bakes happen inside the warm-up pass
        setup_layers.setdefault("workloads.bake_s", now() - bake_start)

    spans = Spans() if trace else None
    try:
        run_pass(sizing if name == "cluster_sim" else warm_up_sizing(sizing),
                 None)  # untimed
        result.metrics["setup_s"] = now() - process_start_s
        untraced = run_pass(sizing, None) if trace else None
        if trace:
            # A traced pass is replayed stage by stage after it ran, so it
            # takes twice as long; two of them split the layers well enough.
            min_passes = 2
        elif name == "serve_par2":
            min_passes = sizing.par2_min_passes
        else:
            min_passes = sizing.min_passes
        passes = []
        start = now()
        while len(passes) < min_passes or now() - start < seconds:
            passes.append(run_pass(sizing, spans))
        if trace:
            _trace_extras(name, sizing, seed, passes, untraced, result)
    finally:
        if name == "serve_par2":
            from repro.backend.parallel import shutdown_pool
            shutdown_pool()

    # End-to-end metrics: medians over passes / sessions.
    result.passes = len(passes)
    result.raw.update({
        "pass_wall_s": [p.wall_s for p in passes],
        "frames_per_s": [p.frames / p.wall_s for p in passes],
        "ttff_ms": [x for p in passes for x in p.ttff_ms],
        "stream_ms": [x for p in passes for x in p.stream_ms],
    })
    result.metrics.update({
        "frames_per_s": median(result.raw["frames_per_s"]),
        "ttff_p50_ms": median(result.raw["ttff_ms"]),
        "stream_p50_ms": median(result.raw["stream_ms"]),
        "peak_rss_mb": driver_peak_rss_mb(),
    })
    result.samples = {"ttff_p50_ms": len(result.raw["ttff_ms"]),
                      "stream_p50_ms": len(result.raw["stream_ms"])}

    # Correctness: operations are frames (sessions for cluster_sim).
    if name == "cluster_sim":
        result.attempted = sum(p.sessions for p in passes)
        result.failed = sum(p.sessions for p in passes
                            if p.check != passes[0].check)
        result.digest = digest_of_digests(
            [repr(sorted(s.items())) for s in passes[0].check])
    else:
        result.attempted = sum(p.frames for p in passes)
        result.failed = _count_failures(passes, expected)
        result.digest = digest_of_digests(passes[0].digests)

    if trace:
        for key in sorted({key for p in passes for key in p.layers}):
            result.metrics[key] = median([p.layers[key] for p in passes])
        result.metrics.update(setup_layers)
        result.raw["layers"] = [p.layers for p in passes]
        result.spans = spans
    return result


def _trace_extras(name: str, sizing: Sizing, seed: int, passes: list,
                  untraced: PassRecord, result: WorkloadResult) -> None:
    """Overheads and cross-workload ratios only a traced run computes."""
    traced_wall_s = median([p.wall_s for p in passes])
    result.metrics["trace.overhead_pct"] = (
        traced_wall_s / untraced.wall_s - 1.0) * 100
    result.notes["trace_overhead_bases_s"] = {
        "traced_pass": traced_wall_s, "untraced_pass": untraced.wall_s}
    if name == "serve_mix":
        from repro.obs import MetricsRegistry, Observation, Tracer, activate
        with activate(Observation(tracer=Tracer(),
                                  metrics=MetricsRegistry())):
            observed = serve_pass(sizing, seed, None, None)
        result.metrics["obs.program_overhead_pct"] = (
            observed.wall_s / untraced.wall_s - 1.0) * 100
    if name == "serve_par2":
        serial_s = median([serve_pass(sizing, seed, None, None).wall_s
                           for _ in range(2)])
        result.metrics["backend.par2_speedup_x"] = serial_s / untraced.wall_s
        result.notes["par2_speedup_bases_s"] = {
            "serial_pass": serial_s, "par2_pass": untraced.wall_s}
