"""Declarative workload specifications: scene x trajectory x algorithm x tier.

A :class:`WorkloadSpec` is the single run-table row every harness entry
point consumes (the muBench-style idiom): the CLI resolves named specs from
the registry, ``harness.runner`` builds engine sessions from them,
``harness.figures`` routes figure configurations through them, and the
shared caches key artifacts by :meth:`WorkloadSpec.spec_hash`.

Specs are frozen/hashable and fully declarative — building the actual
renderer, trajectory, or session happens in the builder methods, which
resolve against an :class:`~repro.harness.configs.ExperimentConfig` scale
at call time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass

from ..scenes.trajectory import (
    TRAJECTORY_KINDS,
    Trajectory,
    make_trajectory,
    trajectory_parameters,
)

__all__ = ["WorkloadSpec", "TIERS", "QUALITY_LEVELS"]

# Resolution/quality tiers.  "inherit" uses whatever config scale the
# harness is running at (--fast or default); "preview" derives a cheaper
# one from it, letting one serve mix heterogeneous qualities.
TIERS = ("inherit", "preview")

# Degradation ladder the SLO governor moves sessions along, *relative to
# the spec's own tier*: "full" is the spec's native quality, each step
# down halves resolution and ray-march depth.  ``min_quality_tier`` names
# the lowest rung a governor may push this workload to ("full" forbids
# any degradation).
QUALITY_LEVELS = ("full", "reduced", "minimal")


@dataclass(frozen=True)
class WorkloadSpec:
    """One serving workload: what a user session renders and how.

    ``trajectory_params`` is a tuple of ``(key, value)`` pairs (kept as a
    tuple so specs stay hashable); :meth:`make` accepts them as kwargs.
    """

    name: str
    scene: str = "lego"
    algorithm: str = "directvoxgo"
    trajectory: str = "orbit"
    trajectory_params: tuple = ()
    frames: int | None = None
    window: int | None = None
    policy: str = "extrapolated"
    phi: float | None = None
    variant: str = "cicero"
    tier: str = "inherit"
    fps_target: float = 30.0
    seed: int = 0
    # Service-level objective: the frame rate the workload must sustain
    # before a governor starts trading quality for latency.  ``None``
    # falls back to ``fps_target`` (the rate the viewer requests frames
    # at), letting specs declare a looser SLO than their request rate.
    slo_fps: float | None = None
    # Lowest :data:`QUALITY_LEVELS` rung a governor may degrade this
    # workload to; "full" pins the spec at native quality forever.
    min_quality_tier: str = "minimal"

    @classmethod
    def make(cls, name: str, **kwargs) -> "WorkloadSpec":
        """Spec constructor taking trajectory params as plain kwargs."""
        fields = {f.name for f in dataclasses.fields(cls)}
        spec_kwargs = {k: v for k, v in kwargs.items() if k in fields}
        traj_kwargs = {k: v for k, v in kwargs.items() if k not in fields}
        if traj_kwargs:
            spec_kwargs["trajectory_params"] = tuple(
                sorted(traj_kwargs.items()))
        return cls(name=name, **spec_kwargs)

    def __post_init__(self):
        if self.trajectory not in TRAJECTORY_KINDS:
            known = ", ".join(sorted(TRAJECTORY_KINDS))
            raise ValueError(f"unknown trajectory {self.trajectory!r}; "
                             f"one of: {known}")
        # Fail at construction, not session-build time: a stray kwarg here
        # is either a generator-param typo or a misspelled spec field that
        # :meth:`make` routed into trajectory_params.
        accepted = trajectory_parameters(self.trajectory)
        # num_frames/seed come from the spec's own frames/seed fields, the
        # radius from the config.
        for key in ("num_frames", "seed", "radius"):
            accepted.pop(key, None)
        for key, _ in self.trajectory_params:
            if key not in accepted:
                raise ValueError(
                    f"trajectory {self.trajectory!r} does not accept "
                    f"parameter {key!r} (not a spec field either); "
                    f"known parameters: {sorted(accepted)}")
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; one of: {TIERS}")
        if self.min_quality_tier not in QUALITY_LEVELS:
            raise ValueError(
                f"unknown min_quality_tier {self.min_quality_tier!r}; "
                f"one of: {QUALITY_LEVELS}")
        if self.slo_fps is not None and self.slo_fps <= 0.0:
            raise ValueError("slo_fps must be positive (or None)")

    def with_overrides(self, frames: int | None = None,
                       seed_offset: int | None = None) -> "WorkloadSpec":
        """Spec with the harness-level overrides applied (one code path
        for ``--frames``/``--seed`` across serve and cluster).

        ``frames`` replaces the sequence length; ``seed_offset`` shifts
        the trajectory seed so stochastic trajectories resample
        reproducibly run to run — copies of one spec share the derived
        seed, so they keep coalescing in the shared caches.  Both
        overrides change :meth:`spec_hash` (and so ``cache_key``)
        consistently for every consumer.
        """
        changes = {}
        if frames is not None:
            changes["frames"] = int(frames)
        if seed_offset:
            changes["seed"] = self.seed + int(seed_offset)
        return dataclasses.replace(self, **changes) if changes else self

    # -- service-level objective --------------------------------------------------

    @property
    def effective_slo_fps(self) -> float:
        """The frame rate the SLO holds this workload to."""
        return self.fps_target if self.slo_fps is None else self.slo_fps

    @property
    def slo_latency_s(self) -> float:
        """Per-frame latency budget implied by the SLO frame rate."""
        return 1.0 / self.effective_slo_fps

    @property
    def max_quality_level(self) -> int:
        """Deepest :data:`QUALITY_LEVELS` index a governor may reach."""
        return QUALITY_LEVELS.index(self.min_quality_tier)

    # -- identity ---------------------------------------------------------------

    def spec_hash(self) -> str:
        """Stable content hash of every field except the display name."""
        payload = dataclasses.asdict(self)
        payload.pop("name")
        canonical = repr(sorted(payload.items()))
        return hashlib.sha1(canonical.encode()).hexdigest()[:16]

    def cache_key(self, config, level: int = 0) -> str:
        """Content-addressed identity of this spec at a config scale.

        Sessions whose specs and resolved configs agree produce identical
        renderers and identical reference renders, so this string is the
        namespace half of every reference-cache key — at any ladder
        ``level``, however the session was built.  Specs and configs are
        frozen, so the string is memoized per ``(spec, config, level)``.
        """
        return _keys(self, config, level)[0]

    def render_key(self, config, level: int = 0) -> str:
        """Content-addressed identity of what draws this spec's pixels.

        The renderer and camera are a function of the scene, algorithm
        and resolved config, and the SPARW target path adds ``phi``;
        every other field only chooses *which* poses are drawn (the
        trajectory and its seed, window, policy) or prices them.  So a
        target frame is a pure function of this key and its reference
        and target poses, and specs that differ only in those other
        fields (a scene catalog's seeded variants) share target frames.
        Memoized like :meth:`cache_key`.
        """
        return _keys(self, config, level)[1]

    # -- resolution against a config scale --------------------------------------

    def resolve_config(self, base, level: int = 0):
        """The :class:`ExperimentConfig` this spec renders at ``level``.

        The tier picks the native config (level 0); each further
        :data:`QUALITY_LEVELS` rung halves ``image_size`` and
        ``samples_per_ray``.  Rungs differ only in imaging parameters, so
        every level resolves around the *same* baked field.
        """
        if not 0 <= level < len(QUALITY_LEVELS):
            raise ValueError(f"quality level must be in "
                             f"0..{len(QUALITY_LEVELS) - 1}, got {level}")
        if self.tier == "preview":
            # Half-resolution, half-depth derivative of the base.
            base = dataclasses.replace(
                base,
                image_size=max(32, base.image_size // 2),
                samples_per_ray=max(24, base.samples_per_ray // 2))
        if level == 0:
            return base
        # Floors keep degraded configs renderable (and strictly ordered at
        # the FAST test scale: 48px -> 24px -> 16px).
        factor = 2 ** level
        return dataclasses.replace(
            base, image_size=max(16, base.image_size // factor),
            samples_per_ray=max(12, base.samples_per_ray // factor))

    def num_frames(self, config) -> int:
        """Sequence length: the spec's override or the config default."""
        return self.frames if self.frames is not None else config.num_frames

    def build_trajectory(self, config) -> Trajectory:
        """Deterministic trajectory at the resolved config scale.

        Every generator takes the config's orbit radius, and orbits default
        their step to the config's, so spec-built orbits are pose-identical
        to the figure harness's ground-truth trajectories.
        """
        config = self.resolve_config(config)
        params = dict(self.trajectory_params)
        if self.trajectory == "orbit":
            params.setdefault("degrees_per_frame", config.degrees_per_frame)
        return make_trajectory(self.trajectory, self.num_frames(config),
                               config.orbit_radius, seed=self.seed, **params)

    def build_poses(self, config, memo=None) -> list:
        """The trajectory's poses, built once per ``memo`` (if one is given).

        Keyed by ``("poses", cache_key(config))`` at rung 0, which covers
        every field and config value the trajectory reads; poses stored
        in the memo are read-only.
        """
        if memo is None:
            return self.build_trajectory(config).poses
        key = ("poses", self.cache_key(config))
        poses = memo.get(key)
        if poses is None:
            poses = self.build_trajectory(config).poses
            for pose in poses:
                pose.flags.writeable = False
            memo.put(key, poses, size_bytes=sum(p.nbytes for p in poses))
        return poses

    # -- builders ---------------------------------------------------------------

    def build_renderer(self, config, level: int = 0):
        """The (shared-cache-backed) NeRF renderer for this spec."""
        from ..harness.configs import build_renderer
        return build_renderer(self.algorithm, self.scene,
                              self.resolve_config(config, level))

    def build_sparw(self, config, level: int = 0):
        """A fresh SPARW pipeline for one session of this workload."""
        from ..core.sparw.pipeline import SparwRenderer
        from ..harness.configs import make_camera
        resolved = self.resolve_config(config, level)
        window = self.window if self.window is not None else resolved.window
        return SparwRenderer(self.build_renderer(config, level),
                             make_camera(resolved), window=window,
                             policy=self.policy,
                             angle_threshold_deg=self.phi)

    def build_session(self, session_id: str, config, level: int = 0,
                      poses=None, memo=None):
        """A :class:`~repro.engine.RenderSession` serving this workload.

        ``level`` is the quality-ladder rung it starts at; ``poses``
        replaces the spec's trajectory (a cluster worker re-renders only
        the remaining poses of a retuned session).  The session carries
        :meth:`cache_key` and :meth:`render_key` at that level, so the
        engine can answer its reference renders from the shared cache
        and its NeRF requests from a render memo.

        With a render ``memo`` (:func:`~repro.workloads.make_render_memo`)
        the trajectory comes from it (:meth:`build_poses`) and the
        session's SPARW pipeline answers repeated target frames from it
        under its ``render_key``; neither changes a frame.
        """
        from ..engine.session import RenderSession
        if poses is None:
            poses = self.build_poses(config, memo)
        session = RenderSession(session_id, self.build_sparw(config, level),
                                poses, fps_target=self.fps_target,
                                cache_key=self.cache_key(config, level),
                                render_key=self.render_key(config, level),
                                workload=self)
        session.quality_level = level
        if memo is not None:
            session.sparw.share_targets(memo, session.render_key)
        return session

    def run_solo(self, config):
        """Render this workload's sequence single-user (no engine, no cache)."""
        return self.build_sparw(config).render_sequence(
            self.build_trajectory(config).poses)

    def describe(self) -> dict:
        """Row for ``cli workloads`` listings."""
        return {
            "name": self.name,
            "scene": self.scene,
            "trajectory": self.trajectory,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "tier": self.tier,
            "window": self.window if self.window is not None else "config",
            "frames": self.frames if self.frames is not None else "config",
            "policy": self.policy,
            "slo_fps": self.effective_slo_fps,
            "min_tier": self.min_quality_tier,
        }


def _sha16(payload) -> str:
    return hashlib.sha1(repr(payload).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=1024)
def _keys(spec: WorkloadSpec, config, level: int) -> tuple[str, str]:
    """``(cache_key, render_key)`` of a spec (hashing costs ~0.5 ms)."""
    config_hash = _sha16(dataclasses.astuple(
        spec.resolve_config(config, level)))
    render_hash = _sha16((spec.scene, spec.algorithm, spec.phi))
    return f"{spec.spec_hash()}/{config_hash}", f"{render_hash}/{config_hash}"
