"""Factorial experiment runner: RunConfig cells in, one run table out.

This is the only way a serve or cluster run starts.  A single cell
(:class:`~.runconfig.RunConfig`) runs through :func:`execute_cell`: a
serve cell through the batched :class:`~repro.engine.MultiSessionEngine`
on one SoC, a cluster cell through ``simulate_cluster``; both fold the
frame-economics columns (:mod:`.pricing`) into the aggregate.  ``cli
serve`` and ``cli cluster`` execute their one cell here, so a cell
executed from a table file is bit-for-bit the run the standalone
commands produce.

An :class:`ExperimentTable` (JSON, or TOML on Python 3.11+) names a base
cell plus factorial ``axes``; :func:`run_table` expands axes x
repetitions into cells (muBench-style run tables), executes each one,
persists a per-cell raw artifact under ``<out>/cells/``, and writes the
aggregated strict-JSON run table ``BENCH_experiment.json`` plus a CSV
twin.  Every cell artifact records its config hash, so ``--resume``
re-executes only cells whose artifact is missing or whose config
changed.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..cluster import DEFAULT_CLUSTER_MIX, Autoscaler, simulate_cluster
from ..control import (EngineGovernor, mean_psnr_of_levels, quality_floor,
                       start_level)
from ..engine import MultiSessionEngine, make_scheduler
from ..hw.serving import aggregate_serving
from ..hw.soc import SoCModel
from ..workloads import (
    FIELD_CACHE,
    WorkloadSpec,
    apply_slo,
    build_mixed_sessions,
    cache_report,
    make_reference_cache,
)
from .pricing import frame_economics
from .reporting import jsonable, write_bench_json
from .runconfig import RunConfig, RunConfigError

try:
    import tomllib  # Python 3.11+
except ImportError:  # pragma: no cover - py3.10 CI leg
    tomllib = None

__all__ = ["CellResult", "ExperimentTable", "execute_cell",
           "quality_summary", "run_table"]


@dataclass(frozen=True)
class CellResult:
    """Everything one executed cell produced.

    ``rows`` are the run's detail rows (per-worker for cluster cells,
    per-session for serve cells), ``summary`` the aggregate dict the
    standalone commands print, and ``row`` the flat run-table row, with
    the J/frame and $/frame economics columns folded in.  ``mix_label``
    names the resolved workload mix (``"vr-lego:4,dolly-chair:2"``;
    empty for a ``--sessions`` serve).
    """

    cell: RunConfig
    rows: list
    summary: dict
    row: dict
    mix_label: str


def execute_cell(cell: RunConfig, config=None) -> CellResult:
    """Run one cell through the real serve/cluster paths.

    ``config`` overrides the :class:`ExperimentConfig` scale (default:
    the cell's own ``scale`` field).  Same cell, same seed, same result —
    bit for bit.  The cell is validated first, so a library caller meets
    the same bounds and within-mode rules as the CLI.
    """
    cell = cell.validate()
    if config is None:
        config = cell.experiment_config()
    seed = cell.seed + cell.repetition
    if cell.mode == "serve":
        return _execute_serve(cell, config, seed)
    return _execute_cluster(cell, config, seed)


def _mix_label(mix) -> str:
    return ",".join(f"{spec.name}:{count}" for spec, count in mix)


def _execute_cluster(cell: RunConfig, config, seed: int) -> CellResult:
    # The SLO is applied once, here: the simulator and the quality
    # accounting both read it from the specs.
    resolved_mix = apply_slo(cell.workloads or DEFAULT_CLUSTER_MIX,
                             cell.slo_fps)
    # Unset knobs resolve to the effective defaults their fields declare.
    rate_hz = cell.effective("rate_hz")
    workers = cell.effective("workers")
    queue_limit = cell.effective("queue_limit")
    autoscaler = None
    if cell.autoscale:
        floor = cell.effective("min_workers")
        ceiling = 2 * workers if cell.max_workers is None else cell.max_workers
        # Admission caps load per worker at queue_limit, so the scale-up
        # threshold must sit below it or tight queues would shed every
        # overload as rejects without ever growing the fleet.  (It stays
        # >= 0.5, above the autoscaler's 0.25 scale-down threshold.)
        autoscaler = Autoscaler(
            min_workers=floor, max_workers=ceiling,
            up_load=min(2.0, 0.5 * queue_limit),
            scale_up_latency_s=cell.effective("scale_up_latency_s"))
    report = simulate_cluster(
        resolved_mix, config, arrivals=cell.effective("arrivals"),
        rate_hz=rate_hz, duration_s=cell.effective("duration_s"), seed=seed,
        workers=workers, placement=cell.effective("placement"),
        queue_limit=queue_limit,
        frames=cell.frames, autoscaler=autoscaler,
        use_cache=cell.use_cache, governor=cell.governor,
        catalog=cell.catalog, zipf=cell.zipf, replication=cell.replication)
    mix_label = _mix_label(resolved_mix)
    if cell.catalog is None:
        quality = quality_summary(resolved_mix, config, report)
    else:
        tier = report.distribution
        mix_label += (f" ×{tier['catalog']} catalog "
                      f"(zipf={tier['zipf_s']}, R={tier['replication']})")
        # Probe PSNR renders once per unique cache key — prohibitive
        # over a catalog of variants, and orthogonal to what the
        # sharded tier measures; report the ungoverned defaults.
        quality = {"mean_psnr": 0.0, "min_workload_psnr": 0.0,
                   "quality_floor_ok": True, "psnr_per_workload": {}}
    economics = frame_economics(report.total_frames, report.total_energy_j,
                                report.total_busy_s)
    summary = report.summary()
    summary["usd_per_frame"] = economics["usd_per_frame"]
    summary["scale_events"] = report.scale_events
    if cell.governor != "off":
        summary["governor_events"] = report.governor_events
        summary.update(quality)
    offered = report.arrivals_total
    row = {
        "governor": cell.governor,
        "offered_rate_hz": rate_hz,
        "offered": offered,
        "admitted": report.admitted,
        "admitted_rate": (report.admitted / offered if offered else 0.0),
        "reject_rate": report.reject_rate,
        "p99_latency_ms": report.p99_latency_s * 1e3,
        "mean_latency_ms": report.mean_latency_s * 1e3,
        "aggregate_fps": report.aggregate_fps,
        "mean_quality_level": report.mean_quality_level,
        "tier_transitions": report.tier_transitions,
        "overflow_admissions": report.overflow_admissions,
        "mean_psnr": quality["mean_psnr"],
        "min_workload_psnr": quality["min_workload_psnr"],
        "quality_floor_ok": quality["quality_floor_ok"],
        **economics,
    }
    if cell.catalog is not None:
        # Sharded-tier columns, only when the tier ran (un-sharded cells
        # keep their exact legacy shape).
        row.update({
            "hierarchy_hit_rate":
                report.distribution["hierarchy_hit_rate"],
            "field_bakes": report.distribution["field_bakes"],
            "ttff_p95_ms": report.ttff_p95_s * 1e3,
        })
    return CellResult(
        cell=cell, rows=list(report.per_worker), summary=summary, row=row,
        mix_label=mix_label)


def quality_summary(resolved_mix, config, report) -> dict:
    """Probe-PSNR quality accounting of a governed cluster report.

    ``mean_psnr`` is the frame-weighted mean probe PSNR over every served
    frame (at the ladder rung it actually rendered at);
    ``min_workload_psnr`` is the worst per-workload mean, and
    ``quality_floor_ok`` asserts the governor's contract — every
    workload's served mean stayed at or above the floor implied by its
    ``min_quality_tier``.
    """
    specs = {spec.name: spec for spec, _ in resolved_mix}
    per_workload = {}
    total = weighted = 0
    floor_ok = True
    for name, buckets in sorted(report.quality_by_level.items()):
        spec = specs[name]
        frames = sum(buckets.values())
        if not frames:
            continue
        psnr = mean_psnr_of_levels(spec, config, buckets)
        per_workload[name] = psnr
        floor_ok &= psnr >= quality_floor(spec, config) - 1e-9
        total += frames
        weighted += psnr * frames
    return {
        "mean_psnr": weighted / total if total else 0.0,
        "min_workload_psnr": min(per_workload.values(), default=0.0),
        "quality_floor_ok": floor_ok,
        "psnr_per_workload": per_workload,
    }


def _sessions_mix(sessions: int) -> list:
    """``sessions`` distinct lego orbits as ``(spec, 1)`` pairs.

    Each session is the spec default (lego, directvoxgo, priced on
    cicero) on its own orbit, with start angles spread around the circle
    so every user sees different content (no two sessions share
    reference renders — the cache-free worst case the registry's
    duplicated mixes contrast with).
    """
    return [(WorkloadSpec.make(f"user{i:02d}-lego",
                               start_angle_deg=360.0 * i / sessions), 1)
            for i in range(sessions)]


def _execute_serve(cell: RunConfig, config, seed: int) -> CellResult:
    """Serve concurrent users on one SoC through the batched engine.

    The sessions come from the cell's ``workloads`` mix or, when it is
    unset, from :func:`_sessions_mix`; every session prices on the one
    SoC ``variant`` its specs carry.  ``use_cache`` attaches the run's
    own reference cache, which changes only the work: serving is
    bit-identical either way and across backends.  A governed
    cell splits ``ray_budget`` by the governor's weights, and a
    ``static`` one builds every session already pinned at its
    ``min_quality_tier`` rung.  The scheduler also picks the service
    order of the SoC queue the report and the governor price on:
    oldest request first for round-robin, shortest-job-first for
    deadline.
    """
    by_count = cell.workloads is None
    # One SLO source: rewrite the specs, then everything (governor
    # included) reads spec.slo_latency_s.
    resolved_mix = apply_slo(
        _sessions_mix(cell.effective("sessions")) if by_count
        else cell.workloads, cell.slo_fps)
    scheduler = cell.effective("scheduler")
    order = "sjf" if scheduler == "deadline" else "arrival"
    field_before = FIELD_CACHE.stats.snapshot()
    references = make_reference_cache()

    engine_governor = None
    if cell.governor != "off":
        engine_governor = EngineGovernor(config, mode=cell.governor,
                                         order=order)

    # Sessions are built at the governor's start rung, so a static cell
    # renders even the first frame at the min_quality_tier rung.
    def build(spec, session_id, config):
        return spec.build_session(
            session_id, config,
            level=start_level(cell.governor, spec.max_quality_level))
    built = build_mixed_sessions(resolved_mix, config, frames=cell.frames,
                                 seed=seed, build=build)
    engine = MultiSessionEngine(
        built, scheduler=make_scheduler(scheduler),
        ray_budget=cell.ray_budget,
        reference_cache=references if cell.use_cache else None,
        governor=engine_governor, backend=cell.backend,
        engine_workers=cell.engine_workers)
    result = engine.run()

    # One SoC prices the serve: every spec, registered or built from
    # --sessions, carries "cicero".
    (variant,) = {spec.variant for spec, _ in resolved_mix}
    report = aggregate_serving(
        {s.session_id: s.result for s in result.sessions},
        soc=SoCModel(feature_dim=config.feature_dim), variant=variant,
        order=order,
        fps_targets={s.session_id: s.fps_target for s in result.sessions},
        cache_stats=cache_report(references, field_since=field_before))

    rows = []
    for session, stats in zip(result.sessions, report.per_session):
        detail = {
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
            detail["quality_level"] = session.quality_level
        rows.append(detail)
    batch = result.batch
    ref_cache = report.cache["references"]
    summary = {
        "sessions": report.num_sessions,
        "scheduler": scheduler,
        "variant": variant,
        "cache_enabled": cell.use_cache,
        "total_frames": report.total_frames,
        "aggregate_fps": report.aggregate_fps,
        "mean_latency_ms": report.mean_latency_s * 1e3,
        "p50_latency_ms": report.p50_latency_s * 1e3,
        "p95_latency_ms": report.p95_latency_s * 1e3,
        "p99_latency_ms": report.p99_latency_s * 1e3,
        "worst_latency_ms": report.worst_latency_s * 1e3,
        **frame_economics(report.total_frames, report.total_energy_j,
                          sum(s.busy_s for s in report.per_session)),
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
        summary["ray_budget"] = cell.ray_budget
    row = {
        "governor": cell.governor,
        "sessions": summary["sessions"],
        "total_frames": summary["total_frames"],
        "aggregate_fps": summary["aggregate_fps"],
        "mean_latency_ms": summary["mean_latency_ms"],
        "p95_latency_ms": summary["p95_latency_ms"],
        "p99_latency_ms": summary["p99_latency_ms"],
        "ref_cache_hit_rate": summary["ref_cache_hit_rate"],
        "total_energy_j": summary["total_energy_j"],
        "joules_per_frame": summary["joules_per_frame"],
        "usd_per_frame": summary["usd_per_frame"],
    }
    return CellResult(cell=cell, rows=rows, summary=summary, row=row,
                      mix_label="" if by_count else _mix_label(resolved_mix))


# ---------------------------------------------------------------------------
# Factorial tables
# ---------------------------------------------------------------------------

_TABLE_KEYS = ("name", "base", "axes", "repetitions")


@dataclass(frozen=True)
class ExperimentTable:
    """A factorial experiment: base cell x axes x repetitions.

    ``axes`` is an ordered tuple of ``(field, values)`` pairs over
    :class:`RunConfig` fields; :meth:`cells` expands their cartesian
    product (last axis fastest, repetitions outermost-last) into
    validated cells.  Repetition ``r`` offsets every cell's seed by
    ``r``, so repeated cells re-sample arrivals reproducibly.
    """

    name: str
    base: RunConfig
    axes: tuple = ()
    repetitions: int = 1

    @classmethod
    def from_dict(cls, data: dict, name: str = "experiment"
                  ) -> "ExperimentTable":
        """Build a table from the parsed JSON/TOML document."""
        if not isinstance(data, dict):
            raise RunConfigError("experiment table must be a JSON/TOML "
                                 "object with 'base' and 'axes'")
        unknown = sorted(set(data) - set(_TABLE_KEYS))
        if unknown:
            raise RunConfigError(
                f"unknown table key(s) {', '.join(unknown)}; known keys: "
                f"{', '.join(_TABLE_KEYS)}")
        base = RunConfig.from_dict(data.get("base") or {})
        fields = set(RunConfig.from_dict({}).to_dict())
        axes = []
        for axis, values in (data.get("axes") or {}).items():
            if axis not in fields or axis in ("label", "repetition"):
                raise RunConfigError(
                    f"axis {axis!r} is not a sweepable RunConfig field")
            values = list(values) if isinstance(values, (list, tuple)) \
                else [values]
            if not values:
                raise RunConfigError(f"axis {axis!r} has no values")
            axes.append((axis, tuple(values)))
        repetitions = int(data.get("repetitions", 1))
        if repetitions < 1:
            raise RunConfigError("repetitions must be >= 1")
        return cls(name=str(data.get("name", name)), base=base,
                   axes=tuple(axes), repetitions=repetitions)

    @classmethod
    def from_file(cls, path) -> "ExperimentTable":
        """Load a table from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        if path.suffix == ".toml":
            if tomllib is None:
                raise RunConfigError(
                    "TOML tables need Python 3.11+ (tomllib is not "
                    "available); convert the table to JSON")
            data = tomllib.loads(path.read_text())
        else:
            try:
                data = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise RunConfigError(f"{path}: not valid JSON "
                                     f"({exc})") from None
        return cls.from_dict(data, name=path.stem)

    def cells(self) -> list:
        """The expanded, validated run list (one RunConfig per cell)."""
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        expanded = []
        for assignment in itertools.product(*grids):
            for repetition in range(self.repetitions):
                label = ",".join(f"{axis}={value}" for axis, value
                                 in zip(names, assignment))
                if self.repetitions > 1:
                    label = f"{label},rep={repetition}" if label \
                        else f"rep={repetition}"
                cell = self.base.with_updates(
                    repetition=repetition, label=label or self.name,
                    **dict(zip(names, assignment)))
                expanded.append(cell.validate())
        return expanded


def _cell_artifact(cells_dir: Path, table_name: str, index: int) -> Path:
    return cells_dir / f"BENCH_{table_name}_cell{index:03d}.json"


def _reusable_row(artifact: Path, config_hash: str):
    """The persisted run-table row, iff the artifact matches the hash."""
    if not artifact.exists():
        return None
    try:
        payload = json.loads(artifact.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    extra = payload.get("extra") or {}
    if extra.get("config_hash") != config_hash:
        return None
    return extra.get("row")


def _write_csv(path: Path, rows: list) -> None:
    import csv
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: jsonable(value)
                             for key, value in row.items()})


def run_table(table: ExperimentTable, out_dir, resume: bool = False,
              default_scale: str = "default", log=None) -> tuple:
    """Execute (or resume) a factorial table; returns (rows, extra, path).

    One aggregated row per cell lands in ``<out>/BENCH_experiment.json``
    (strict JSON) and ``<out>/BENCH_experiment.csv``; each cell's raw
    detail rows land in ``<out>/cells/BENCH_<table>_cellNNN.json`` with
    the cell's config + config hash.  With ``resume``, cells whose
    artifact already matches their config hash are folded back into the
    table without re-executing — interrupting a run and re-running with
    ``resume`` completes only the missing cells.
    """
    out = Path(out_dir)
    cells_dir = out / "cells"
    cells = table.cells()
    rows = []
    executed = reused = 0
    started = time.perf_counter()
    for index, cell in enumerate(cells):
        config_hash = cell.config_hash()
        artifact = _cell_artifact(cells_dir, table.name, index)
        if resume:
            row = _reusable_row(artifact, config_hash)
            if row is not None:
                reused += 1
                rows.append(row)
                if log is not None:
                    log(f"[{index + 1}/{len(cells)}] {cell.label}: "
                        "resumed from artifact")
                continue
        cell_started = time.perf_counter()
        config = cell.experiment_config(default_scale)
        result = execute_cell(cell, config=config)
        cell_elapsed = time.perf_counter() - cell_started
        row = {
            "cell": cell.label or f"cell{index:03d}",
            "index": index,
            "mode": cell.mode,
            "repetition": cell.repetition,
            "mix": result.mix_label,
            "config_hash": config_hash,
            **{axis: getattr(cell, axis) for axis, _ in table.axes},
            **result.row,
        }
        write_bench_json(
            cells_dir, f"{table.name}_cell{index:03d}", result.rows,
            cell_elapsed, config=config,
            extra={"config_hash": config_hash, "config": cell.to_dict(),
                   "summary": result.summary, "row": row},
            kind="experiment-cell")
        executed += 1
        rows.append(row)
        if log is not None:
            log(f"[{index + 1}/{len(cells)}] {cell.label}: "
                f"done in {cell_elapsed:.1f}s")
    elapsed = time.perf_counter() - started
    extra = {
        "table": table.name,
        "base": table.base.to_dict(),
        "axes": {axis: list(values) for axis, values in table.axes},
        "repetitions": table.repetitions,
        "cells": len(cells),
        "executed": executed,
        "resumed": reused,
    }
    path = write_bench_json(out, "experiment", rows, elapsed, extra=extra,
                            kind="experiment")
    _write_csv(out / "BENCH_experiment.csv", rows)
    return rows, extra, path
