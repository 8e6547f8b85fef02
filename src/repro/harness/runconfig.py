"""Declarative run configuration: typed sections, one flag per field.

A :class:`RunConfig` is the frozen, JSON/TOML-loadable description of a
single harness run ("cell").  Its body is split into frozen *sections*
— :class:`SharedConfig`, which every mode takes, plus exactly one of
:class:`ServeConfig`, :class:`ClusterConfig` or :class:`RealserveConfig`
— and each section field is declared once with :func:`option`: its CLI
flag, help text, ``choices``, numeric bound and *effective* default
(what the executor applies when the field is left unset) all live in
the field's metadata.  Everything else is derived from those
declarations: ``cli.build_parser()`` generates each command's flags from
the sections the command takes, :meth:`RunConfig.validate` checks
choices and bounds from the metadata, and a field of another mode
cannot be set on a cell at all (one generated message says whose it
is).  Only genuine within-mode rules are written by hand.

The wire format is flat: :meth:`RunConfig.to_dict` emits every field of
every section (inactive sections contribute their defaults), and
:meth:`RunConfig.config_hash` digests the canonical JSON of every
result-affecting field, which is what the experiment runner's
``--resume`` compares against persisted per-cell artifacts (a cell
re-runs iff its config changed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from ..backend import BACKENDS, DEFAULT_WORKERS
from ..cluster import ARRIVAL_KINDS, PLACEMENTS
from ..control import GOVERNOR_MODES
from ..distribution import DEFAULT_REPLICATION, DEFAULT_ZIPF_S
from ..engine import SCHEDULERS
from ..workloads import parse_mix
from .configs import DEFAULT, FAST

__all__ = ["MODES", "SCALES", "ClusterConfig", "RealserveConfig",
           "RunConfig", "RunConfigError", "ServeConfig", "SharedConfig",
           "config_fields", "effective_default"]

MODES = ("serve", "cluster", "realserve")
SCALES = ("default", "fast")


class RunConfigError(ValueError):
    """A run configuration that must be rejected, with a user-facing
    message in ``args[0]`` (the CLI prints it verbatim and exits 2)."""


def option(flag: str, help: str, default=None, **meta):
    """Declare one config field together with the CLI flag that sets it.

    ``meta`` keys: ``type``/``choices``/``metavar`` (handed to argparse;
    ``choices`` is also checked by :meth:`RunConfig.validate`),
    ``ge``/``gt``/``le`` (numeric bounds), ``effective`` (the default the
    executor applies when the field is unset — a value, or a
    ``{mode: value}`` dict where modes differ), ``unset`` (prose for the
    help where that default is not a literal), ``const`` (the flag is a
    switch storing this value) and ``repeat`` (the flag is repeatable;
    the callable folds the collected list into the field value).  A
    float field's value must also be finite.
    """
    return dataclasses.field(
        default=default, metadata={"flag": flag, "help": help, **meta})


@dataclass(frozen=True)
class SharedConfig:
    """Knobs every mode takes."""

    workloads: str | None = option(
        "--workload", "named workload spec to serve, optionally duplicated "
        "N times (repeatable; see the 'workloads' command; the mix counts "
        "fix the session count, so --sessions does not apply; "
        "arrival-driven commands use the counts as popularity weights)",
        metavar="NAME[:N]", repeat=",".join)
    frames: int | None = option(
        "--frames", "frames per session", type=int, ge=1,
        unset="config scale")
    seed: int = option(
        "--seed", "seed for every stochastic choice (trajectory sampling, "
        "arrival schedule); same seed, same run", 0, type=int, ge=0)
    governor: str = option(
        "--governor", "SLO quality governor: 'off' serves every session at "
        "its native tier, 'static' pins each workload's min_quality_tier, "
        "'adaptive' degrades/recovers on observed frame latency",
        "off", choices=GOVERNOR_MODES)
    slo_fps: float | None = option(
        "--slo", "override every workload's SLO frame rate", type=float,
        gt=0, metavar="FPS",
        unset="each spec's slo_fps, falling back to its fps_target")
    use_cache: bool = option(
        "--no-cache", "disable the shared cross-session reference cache "
        "(outputs are bit-identical either way)", True, const=False)


@dataclass(frozen=True)
class ServeConfig:
    """Closed-set serving on one SoC (``cli serve``): the one mode whose
    engine may render on the forked worker pool (the live server and a
    cluster worker always render in-process)."""

    # None lets the engine default (numpy) apply.
    backend: str | None = option(
        "--backend", "where the engine renders: 'numpy' (default, "
        "in-process) or 'parallel' (sessions fan out to a worker pool "
        "forked from this process, which inherits the baked tables "
        "instead of copying them; bit-identical to numpy); taken by "
        "serve, and as the 'backend' field of serve cells in experiment "
        "tables", choices=BACKENDS)
    engine_workers: int | None = option(
        "--engine-workers", "worker-process count for --backend parallel; "
        "rejected with the in-process backend", type=int, ge=1,
        metavar="N", effective=DEFAULT_WORKERS)
    sessions: int | None = option(
        "--sessions", "number of concurrent sessions, each a distinct lego "
        "orbit on directvoxgo priced on cicero (with --workload the mix "
        "counts decide)", type=int, ge=1, effective=4)
    scheduler: str | None = option(
        "--scheduler", "session scheduling policy",
        choices=tuple(SCHEDULERS), effective="round_robin")
    ray_budget: int | None = option(
        "--ray-budget", "cap on rays served per engine round; with "
        "--governor the budget is split into per-session shares by SLO "
        "pressure", type=int, ge=1, unset="unbounded")


@dataclass(frozen=True)
class ArrivalConfig:
    """The open-loop arrival schedule; declared once for the two modes
    (cluster simulator, live-server loadgen) that replay one."""

    arrivals: str | None = option(
        "--arrivals", "arrival process",
        choices=ARRIVAL_KINDS, effective="poisson")
    rate_hz: float | None = option(
        "--rate", "arrival rate in sessions/s; peak rate for diurnal",
        type=float, gt=0, effective={"cluster": 1.0, "realserve": 2.0})
    duration_s: float | None = option(
        "--duration", "arrival window in virtual seconds", type=float,
        gt=0, effective={"cluster": 10.0, "realserve": 4.0})


@dataclass(frozen=True)
class ClusterConfig(ArrivalConfig):
    """Open-loop arrivals against a simulated SoC fleet (``cli cluster``,
    experiment tables)."""

    workers: int | None = option(
        "--workers", "initial SoC worker count", type=int, ge=1, effective=4)
    placement: str | None = option(
        "--placement", "placement policy (cache_affinity co-locates "
        "sessions sharing content on one worker's reference cache; "
        "shard_affinity breaks load ties toward workers already holding "
        "the field — pair with --catalog)",
        choices=tuple(sorted(PLACEMENTS)), effective="least_loaded")
    queue_limit: int | None = option(
        "--queue-limit", "max resident sessions per worker before "
        "admission rejects", type=int, ge=1, effective=4)
    autoscale: bool = option(
        "--autoscale", "scale the fleet on load between --min-workers and "
        "--max-workers", False, const=True)
    min_workers: int | None = option(
        "--min-workers", "autoscaler floor (requires --autoscale)",
        type=int, ge=1, effective=1)
    max_workers: int | None = option(
        "--max-workers", "autoscaler ceiling (requires --autoscale)",
        type=int, ge=1, unset="2x --workers")
    scale_up_latency_s: float | None = option(
        "--scale-up-latency", "provisioning delay in virtual seconds before "
        "a scaled-up worker takes sessions (requires --autoscale)",
        type=float, ge=0, effective=1.0)
    # Sharded field tier (repro.distribution): catalog switches it on,
    # zipf shapes the popularity skew, replication sizes the owner sets.
    catalog: int | None = option(
        "--catalog", "expand the workload mix into N scene variants (distinct "
        "identities for placement and the field tier, with their base's "
        "pixels) served through the sharded field tier (see "
        "docs/sharded-serving.md)", type=int, ge=1, metavar="N")
    zipf: float | None = option(
        "--zipf", "zipfian popularity skew over the catalog (0 = uniform; "
        "requires --catalog)", type=float, ge=0, metavar="S",
        effective=DEFAULT_ZIPF_S)
    replication: int | None = option(
        "--replication", "replicas per baked field in the shard tier (0 "
        "disables the tier — per-worker LRU only; requires --catalog)",
        type=int, ge=0, metavar="R", effective=DEFAULT_REPLICATION)


@dataclass(frozen=True)
class RealserveConfig(ArrivalConfig):
    """The live frame server and its load generator (``cli serve-live``,
    ``cli loadgen``; see :mod:`repro.server`)."""

    host: str | None = option(
        "--host", "interface the frame server binds", effective="127.0.0.1")
    port: int | None = option(
        "--port", "port the frame server binds (0 = ephemeral; the bound "
        "port is printed)", type=int, ge=0, le=65535, effective=0)
    time_scale: float | None = option(
        "--time-scale", "wall seconds per virtual arrival second (<1 "
        "compresses the schedule — reconcile normalises back to virtual "
        "seconds)", type=float, gt=0, effective=1.0)


_SECTIONS = {"serve": ServeConfig, "cluster": ClusterConfig,
             "realserve": RealserveConfig}


def config_fields(mode: str) -> tuple:
    """The dataclass fields a ``mode`` cell takes: shared, then its own."""
    return (dataclasses.fields(SharedConfig)
            + dataclasses.fields(_SECTIONS[mode]))


# The flat wire format's key set: the RunConfig header, then every
# section field by name (with the modes whose cells take it).
_HEADER = ("mode", "scale", "label", "repetition")
_FIELDS = {field.name: field for mode in MODES
           for field in config_fields(mode)}
_OWNERS = {name: tuple(mode for mode in MODES
                       if name in {f.name for f in config_fields(mode)})
           for name in _FIELDS}


def effective_default(name: str, mode: str):
    """What the executor applies when ``name`` is unset on a ``mode`` cell:
    its metadata ``effective`` value, else the field default."""
    field = _FIELDS[name]
    default = field.metadata.get("effective", field.default)
    return default[mode] if isinstance(default, dict) else default


def _check_value(field, value) -> None:
    """The checks on one set field: a float is finite, then the
    metadata-declared choices and bounds."""
    meta = field.metadata
    # A bound test is false for NaN and passes infinity, which would
    # hang an arrival schedule or a loadgen sleep.
    if meta.get("type") is float and not math.isfinite(value):
        raise RunConfigError(f"{meta['flag']} must be finite")
    choices = meta.get("choices")
    if choices is not None and value not in choices:
        raise RunConfigError(
            f"unknown {field.name} {value!r}; one of {choices}")
    ge, gt, le = meta.get("ge"), meta.get("gt"), meta.get("le")
    if (ge is not None and value < ge or gt is not None and value <= gt
            or le is not None and value > le):
        bound = (f"in {ge}..{le}" if le is not None
                 else f">= {ge}" if ge is not None else f"> {gt}")
        raise RunConfigError(f"{meta['flag']} must be {bound}")


@dataclass(frozen=True, init=False)
class RunConfig:
    """One cell of an experiment: everything a run needs, and nothing
    resolved from ambient state.

    Constructed from flat keyword arguments (``RunConfig(mode="cluster",
    rate_hz=4.0, workers=2)``): each is routed to the section that owns
    it, and a field of another mode raises :class:`RunConfigError` — a
    serve cell with ``workers=4`` cannot exist.  Section fields read
    back flat too (``cell.rate_hz``); a field of an inactive section
    reads as its default.  Fields default to "unset" (``None``) wherever
    the executor owns the default; :meth:`effective` resolves those from
    the field metadata.  ``label`` is cosmetic (excluded from the config
    hash); ``repetition`` distinguishes factorial repetitions (each
    offsets the seed by its index).
    """

    mode: str
    scale: str | None  # "default" | "fast" | None (runner decides)
    label: str | None
    repetition: int
    shared: SharedConfig
    section: ServeConfig | ClusterConfig | RealserveConfig

    def __init__(self, mode: str = "cluster", scale: str | None = None,
                 label: str | None = None, repetition: int = 0, **fields):
        if mode not in MODES:
            raise RunConfigError(f"unknown mode {mode!r}; one of {MODES}")
        unknown = sorted(set(fields) - set(_FIELDS))
        if unknown:
            raise RunConfigError(
                f"unknown RunConfig field(s) {', '.join(unknown)}; known "
                f"fields: {', '.join(sorted(_HEADER + tuple(_FIELDS)))}")
        shared, section, foreign = {}, {}, []
        for name, value in fields.items():
            fold = _FIELDS[name].metadata.get("repeat")
            if fold is not None and isinstance(value, list):
                value = fold(value)
            if mode not in _OWNERS[name]:
                # At its default a foreign field says nothing, so the
                # flat dict to_dict() writes loads back.
                if value != _FIELDS[name].default:
                    foreign.append(name)
            elif name in SharedConfig.__dataclass_fields__:
                shared[name] = value
            else:
                section[name] = value
        if foreign:
            owned = "; ".join(
                f"{_FIELDS[name].metadata['flag']} ({name}) is a "
                f"{'/'.join(_OWNERS[name])}-only option" for name in foreign)
            raise RunConfigError(f"{owned}: not valid on a {mode} cell")
        for name, value in (("mode", mode), ("scale", scale),
                            ("label", label), ("repetition", repetition),
                            ("shared", SharedConfig(**shared)),
                            ("section", _SECTIONS[mode](**section))):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only reached for names that are not RunConfig's own attributes:
        # section fields read flat, an inactive section's as the default.
        field = _FIELDS.get(name)
        if field is None:
            raise AttributeError(name)
        for part in (self.shared, self.section):
            if hasattr(part, name):
                return getattr(part, name)
        return field.default

    # -- construction / serialisation -----------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config from the flat dict :meth:`to_dict` writes."""
        return cls(**data)

    def to_dict(self) -> dict:
        """Flat plain-JSON dict of every field of every section
        (inactive sections contribute their defaults)."""
        return {name: getattr(self, name)
                for name in _HEADER + tuple(_FIELDS)}

    def with_updates(self, **updates) -> "RunConfig":
        """A copy with ``updates`` applied (routed like the constructor)."""
        return RunConfig(**{**self.to_dict(), **updates})

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON of result-affecting fields.

        ``label`` is display-only and excluded, so renaming a cell never
        forces a re-run under ``--resume``.
        """
        hashed = self.to_dict()
        hashed.pop("label")
        canonical = json.dumps(hashed, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def experiment_config(self, default_scale: str = "default"):
        """The :class:`ExperimentConfig` scale this cell runs at."""
        scale = self.scale if self.scale is not None else default_scale
        return FAST if scale == "fast" else DEFAULT

    def effective(self, name: str):
        """The field's value, or — when unset — the default its executor
        applies (:func:`effective_default`)."""
        value = getattr(self, name)
        if value is None:
            return effective_default(name, self.mode)
        return value

    # -- validation ------------------------------------------------------------

    def validate(self) -> "RunConfig":
        """Raise :class:`RunConfigError` on any invalid/conflicting knob
        combination; returns ``self`` so calls chain."""
        if self.scale is not None and self.scale not in SCALES:
            raise RunConfigError(
                f"unknown scale {self.scale!r}; one of {SCALES}")
        if self.repetition < 0:
            raise RunConfigError("repetition must be >= 0")
        for field in config_fields(self.mode):
            value = getattr(self, field.name)
            if value is not None:
                _check_value(field, value)
        self._validate_shared()
        if self.mode == "serve":
            self._validate_serve()
        elif self.mode == "cluster":
            self._validate_cluster()
        return self

    def _validate_shared(self) -> None:
        if self.workloads is not None:
            try:
                parse_mix(self.workloads)
            except (KeyError, ValueError) as exc:
                raise RunConfigError(exc.args[0]) from None

    def _validate_serve(self) -> None:
        if self.engine_workers is not None and self.backend != "parallel":
            raise RunConfigError(
                "--engine-workers requires --backend parallel "
                "(the numpy backend runs in-process)")
        if self.workloads is not None and self.sessions is not None:
            raise RunConfigError(
                "--workload cannot be combined with --sessions (the mix "
                "counts fix it)")

    def _validate_cluster(self) -> None:
        if not self.autoscale and (self.min_workers is not None
                                   or self.max_workers is not None
                                   or self.scale_up_latency_s is not None):
            raise RunConfigError(
                "--min-workers/--max-workers/--scale-up-latency require "
                "--autoscale")
        if self.autoscale:
            # The autoscaler only moves the fleet between the bounds — it
            # never provisions up to a floor above the initial fleet, and
            # a ceiling below it would start the run permanently over
            # limit — so the initial size must sit inside them.
            workers = self.effective("workers")
            floor = self.effective("min_workers")
            ceiling = (2 * workers if self.max_workers is None
                       else self.max_workers)
            if not floor <= workers <= ceiling:
                raise RunConfigError(
                    f"initial workers ({workers}) must lie within "
                    f"--min-workers..--max-workers ({floor}..{ceiling})")
        if self.catalog is None and (self.zipf is not None
                                     or self.replication is not None):
            raise RunConfigError(
                "--zipf/--replication require --catalog (the sharded "
                "field tier)")
