"""Engine-layer governor: closed-loop tier/budget control inside one SoC.

Wraps a :class:`~.governor.QualityGovernor` with everything the
multi-session engine needs to run it online: a virtual service clock
(each completed frame is priced on the SoC model and advances it), SLO
latency derivation per workload, mid-stream retuning (a fresh pipeline
from :meth:`~repro.workloads.WorkloadSpec.build_sparw`, whose renderer
resolves through the shared ``FIELD_CACHE`` — no re-bake), and the
per-round ray-budget weights.  The engine itself stays policy-free:
it only calls :meth:`share_weights` and :meth:`observe_record`.
"""

from __future__ import annotations

from ..hw.serving import frame_cost_record
from ..hw.soc import SoCModel
from ..metrics.stats import FrameTimeline, request_time
from ..obs.runtime import current_tracer, metric_inc
from .governor import QualityGovernor

__all__ = ["EngineGovernor"]


class EngineGovernor:
    """Online SLO feedback for a :class:`~repro.engine.MultiSessionEngine`.

    Parameters
    ----------
    config:
        Base :class:`ExperimentConfig` the sessions were built against
        (ladder configs derive from it).
    mode:
        ``"static"`` or ``"adaptive"`` (``"off"`` means: don't attach a
        governor at all).

    Each session's latency target comes from its own workload's
    ``slo_latency_s`` — mix-wide SLO overrides are a spec rewrite
    (:func:`repro.workloads.apply_slo`), not a governor knob, so there is
    exactly one place an SLO can come from.
    """

    def __init__(self, config, mode: str = "adaptive"):
        self.config = config
        self.governor = QualityGovernor(mode)
        # Prices completed frames for the virtual service clock.
        self.soc = SoCModel(feature_dim=config.feature_dim)
        self.clock_s = 0.0
        self.arrivals_s: dict = {}  # session id -> clock_s at attach
        self.events: list = []

    @property
    def mode(self) -> str:
        """Governor mode ("static" or "adaptive")."""
        return self.governor.mode

    # -- engine hooks ------------------------------------------------------------

    def attach(self, sessions: list) -> None:
        """Register every workload-built session (others stay ungoverned).

        ``static`` mode pins sessions at their deepest allowed rung; a
        session not already built there is retuned before its next frame.
        """
        for session in sessions:
            spec = session.workload
            if spec is None:
                continue
            self.arrivals_s[session.session_id] = self.clock_s
            control = self.governor.register(
                session.session_id, spec.slo_latency_s,
                spec.max_quality_level)
            if control.level != session.quality_level:
                self._retune(session, control.level)

    def share_weights(self, sessions: list) -> list:
        """Per-session ray-budget weights in the given order."""
        return [self.governor.weight(s.session_id) for s in sessions]

    def observe_record(self, session, record) -> None:
        """Account one completed frame; maybe retune the session.

        The virtual clock models one shared SoC serving frames in
        completion order; a frame's latency is the clock at completion
        minus its open-loop request time from the session's arrival.  A
        session that is done after this round still advances the clock,
        but is not observed: it renders no later frame a switch could
        land on.
        """
        spec = session.workload
        if spec is None or session.session_id not in self.governor.sessions:
            return
        request_s = request_time(self.arrivals_s[session.session_id],
                                 record.frame_index, spec.fps_target)
        cost_s = frame_cost_record(record, self.soc, spec.variant).time_s
        start_s, self.clock_s = self.clock_s, self.clock_s + cost_s
        if session.done:
            return
        latency_s = FrameTimeline(request_s, start_s, self.clock_s).latency_s
        new_level = self.governor.observe(session.session_id, latency_s)
        if new_level is not None:
            self._retune(session, new_level)

    # -- retuning ----------------------------------------------------------------

    def _retune(self, session, level: int) -> None:
        spec = session.workload
        session.retune(spec.build_sparw(self.config, level), level,
                       spec.cache_key(self.config, level),
                       spec.render_key(self.config, level))
        self.events.append({
            "clock_s": self.clock_s, "session": session.session_id,
            "frame": session.frames_completed, "level": level})
        metric_inc("governor.engine_transitions")
        tracer = current_tracer()
        if tracer is not None:
            pid, base_us = tracer.current_scope()
            tracer.instant(
                "governor.retune", "governor",
                base_us + self.clock_s * 1e6, pid,
                tracer.thread(pid, "governor"),
                args={"session": session.session_id, "level": level,
                      "frame": session.frames_completed})

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict:
        """Flat report row: mode, transitions, final per-session levels."""
        levels = {sid: c.level for sid, c in self.governor.sessions.items()}
        return {
            "governor": self.mode,
            "tier_transitions": len(self.events),
            "governed_sessions": len(levels),
            "mean_final_level": (sum(levels.values()) / len(levels)
                                 if levels else 0.0),
        }
