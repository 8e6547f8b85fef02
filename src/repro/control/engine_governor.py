"""Engine-layer governor: closed-loop tier/budget control inside one SoC.

Wraps a :class:`~.governor.QualityGovernor` with everything the
multi-session engine needs to run it online: the
:class:`~repro.hw.serving.SocQueue` that times each completed frame,
SLO latency derivation per workload, mid-stream retuning (a fresh
pipeline from :meth:`~repro.workloads.WorkloadSpec.build_sparw`, whose
renderer resolves through the shared ``FIELD_CACHE`` — no re-bake), and
the per-round ray-budget weights.  The engine itself stays policy-free.
"""

from __future__ import annotations

from ..hw.serving import SocQueue, SocStream, frame_cost_record
from ..hw.soc import SoCModel
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
    order:
        The queue's service order: the one the run's report prices with.

    Each session's latency target comes from its own workload's
    ``slo_latency_s`` — mix-wide SLO overrides are a spec rewrite
    (:func:`repro.workloads.apply_slo`), not a governor knob, so there is
    exactly one place an SLO can come from.
    """

    def __init__(self, config, mode: str = "adaptive",
                 order: str = "arrival"):
        self.config = config
        self.governor = QualityGovernor(mode)
        # Prices completed frames and places them on the shared SoC.
        self.soc = SoCModel(feature_dim=config.feature_dim)
        self.queue = SocQueue(order)
        self.streams: dict = {}  # session id -> its stream on the queue
        self.events: list = []

    @property
    def mode(self) -> str:
        """Governor mode ("static" or "adaptive")."""
        return self.governor.mode

    # -- engine hooks ------------------------------------------------------------

    def attach(self, sessions: list) -> None:
        """Register every workload-built session (others stay ungoverned).

        A session arrives at the queue's time (when its SoC is next
        free).  ``static`` mode pins sessions at their deepest allowed
        rung; one not built there is retuned before its next frame.
        """
        for session in sessions:
            spec = session.workload
            if spec is None:
                continue
            self.streams[session.session_id] = self.queue.admit(SocStream(
                arrival_s=self.queue.busy_until_s, fps=spec.fps_target,
                frames=session.num_frames, key=session))
            control = self.governor.register(
                session.session_id, spec.slo_latency_s,
                spec.max_quality_level)
            if control.level != session.quality_level:
                self._retune(session, control.level, self.queue.busy_until_s)

    def share_weights(self, sessions: list) -> list:
        """Per-session ray-budget weights in the given order."""
        return [self.governor.weight(s.session_id) for s in sessions]

    def observe_record(self, session, record) -> None:
        """Price one completed frame onto the queue; observe what it places.

        The queue may place a frame rounds later, once every frame
        requested before it has rendered.  A placed frame is observed at
        its queue latency unless its session is done or rendering its
        last frame: no later frame is left for a switch to land on.
        """
        stream = self.streams.get(session.session_id)
        if stream is None:
            return
        stream.costs.append(frame_cost_record(
            record, self.soc, session.workload.variant).time_s)
        self._observe_placed()

    def retire(self, session) -> None:
        """End a session retired mid-serve after the frames it rendered."""
        stream = self.streams.pop(session.session_id, None)
        if stream is not None:
            self.queue.close(stream)
            self._observe_placed()

    def _observe_placed(self) -> None:
        for stream, timeline in self.queue.drain():
            session = stream.key
            if (session.done or session.pending_request.frame_index + 1
                    >= len(session.poses)):
                continue
            new_level = self.governor.observe(session.session_id,
                                              timeline.latency_s)
            if new_level is not None:
                self._retune(session, new_level, timeline.finish_s)

    # -- retuning ----------------------------------------------------------------

    def _retune(self, session, level: int, time_s: float) -> None:
        spec = session.workload
        session.retune(spec.build_sparw(self.config, level), level,
                       spec.cache_key(self.config, level),
                       spec.render_key(self.config, level))
        self.events.append({
            "time_s": time_s, "session": session.session_id,
            "frame": session.frames_completed, "level": level})
        metric_inc("governor.engine_transitions")
        tracer = current_tracer()
        if tracer is not None:
            pid, base_us = tracer.current_scope()
            tracer.instant(
                "governor.retune", "governor",
                base_us + time_s * 1e6, pid,
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
