"""SLO-driven quality governor: degrade before dropping frames.

The governor closes the loop the serving stack was missing: it observes
each session's recent frame latency against its workload's SLO
(:attr:`~repro.workloads.WorkloadSpec.slo_fps`) and moves the session
along its quality ladder — degrading quickly when the SLO is violated,
recovering *hysteretically* (only after sustained headroom) so the tier
doesn't thrash, and never dropping below the workload's
``min_quality_tier``.  It also assigns per-session ray-budget weights so
an engine under a global ray budget serves lagging sessions a larger
share.

Three modes (:data:`GOVERNOR_MODES`):

* ``off`` — no governor; every session renders at its native tier.
* ``static`` — pin every session at its ``min_quality_tier`` rung from
  the start (the max-throughput/min-quality frontier endpoint), no
  feedback.
* ``adaptive`` — the closed loop described above.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["GOVERNOR_MODES", "SessionControl", "QualityGovernor",
           "split_budget", "start_level"]

GOVERNOR_MODES = ("off", "static", "adaptive")


def start_level(mode: str, max_level: int) -> int:
    """The rung a session starts at: ``static`` pins the deepest allowed
    rung from the first frame, every other mode starts at full quality."""
    return max_level if mode == "static" else 0


def split_budget(total: int, weights: list) -> list:
    """Integer shares of ``total`` proportional to ``weights``.

    Largest-remainder apportionment: shares are non-negative, ordered
    ties break toward earlier entries, and — the conservation contract
    the engine relies on — ``sum(shares) == total`` for *any* weight
    assignment (non-positive or non-finite weights are treated as an
    equal split).
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    n = len(weights)
    if n == 0:
        return []
    safe = [float(w) for w in weights]
    if any(w != w or w == float("inf") for w in safe) \
            or sum(max(w, 0.0) for w in safe) <= 0.0:
        safe = [1.0] * n
    else:
        safe = [max(w, 0.0) for w in safe]
    scale = sum(safe)
    # Normalise before multiplying: total * w can overflow to inf for
    # huge (but finite) weights, and inf/inf is NaN.  w/scale is always
    # in [0, 1] (0 when the weight sum itself overflowed to inf).
    raw = [total * (w / scale) for w in safe]
    shares = [int(r) for r in raw]
    remainder = total - sum(shares)
    # Hand the leftover units to the largest fractional parts, cycling
    # round-robin if the deficit exceeds one unit per entry (it can when
    # the normalised weights collapsed to ~0) — and trim back, largest
    # first, in the opposite float pathology.  Either way the sum lands
    # exactly on ``total``.
    order = sorted(range(n), key=lambda i: (-(raw[i] - shares[i]), i))
    step = 0
    while remainder > 0:
        shares[order[step % n]] += 1
        remainder -= 1
        step += 1
    while remainder < 0:
        index = order[step % n]
        if shares[index] > 0:
            shares[index] -= 1
            remainder += 1
        step += 1
    return shares


# Tuning constants of the adaptive loop (deterministic throughout).
LATENCY_WINDOW = 4     # sliding window backing the budget weights
DEGRADE_AFTER = 2      # consecutive SLO violations before degrading
RECOVER_AFTER = 6      # consecutive headroom frames before recovering
HEADROOM_RATIO = 0.5   # "headroom" = latency below this x budget
MIN_WEIGHT, MAX_WEIGHT = 0.25, 4.0  # budget-weight clamp


@dataclass
class SessionControl:
    """One governed session's control state."""

    session_id: str
    target_latency_s: float  # per-frame budget implied by the SLO
    max_level: int           # deepest allowed ladder rung
    level: int = 0
    violation_streak: int = 0
    headroom_streak: int = 0
    recent: deque = field(default_factory=lambda: deque(maxlen=8))

    @property
    def mean_recent_latency_s(self) -> float:
        """Mean of the recent-latency window (0.0 while empty)."""
        return sum(self.recent) / len(self.recent) if self.recent else 0.0


class QualityGovernor:
    """Per-session SLO feedback controller over the quality ladder.

    Layer-agnostic: the multi-session engine and the cluster workers both
    feed it ``observe(session_id, latency_s)`` per completed frame and act
    on the returned level.  All state is deterministic, so governed runs
    stay reproducible per seed.
    """

    def __init__(self, mode: str = "adaptive"):
        if mode not in GOVERNOR_MODES:
            raise ValueError(f"unknown governor mode {mode!r}; "
                             f"one of {GOVERNOR_MODES}")
        self.mode = mode
        self.sessions: dict = {}

    # -- registration -----------------------------------------------------------

    def register(self, session_id: str, target_latency_s: float,
                 max_level: int, level: int | None = None
                 ) -> SessionControl:
        """Start governing a session; returns its control block.

        ``level`` overrides the starting rung (default:
        :func:`start_level`).
        """
        if target_latency_s <= 0.0:
            raise ValueError("target_latency_s must be positive")
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        if level is None:
            level = start_level(self.mode, max_level)
        level = min(max(level, 0), max_level)
        control = SessionControl(
            session_id=str(session_id),
            target_latency_s=float(target_latency_s),
            max_level=int(max_level), level=level,
            recent=deque(maxlen=LATENCY_WINDOW))
        self.sessions[control.session_id] = control
        return control

    def control(self, session_id: str) -> SessionControl:
        """The session's control state; raises KeyError if never registered."""
        try:
            return self.sessions[session_id]
        except KeyError:
            raise KeyError(f"session {session_id!r} is not governed"
                           ) from None

    # -- the control loop -------------------------------------------------------

    def observe(self, session_id: str, latency_s: float) -> int | None:
        """Feed one frame latency; returns the new level on a transition.

        Invariants (property-tested): the level never leaves
        ``[0, max_level]``, and under sustained headroom it is monotone
        non-increasing — recovery cannot overshoot or oscillate.
        """
        control = self.control(session_id)
        control.recent.append(float(latency_s))
        if self.mode != "adaptive":
            return None
        target = control.target_latency_s
        if latency_s > target:
            control.violation_streak += 1
            control.headroom_streak = 0
            if control.violation_streak >= DEGRADE_AFTER \
                    and control.level < control.max_level:
                control.level += 1
                control.violation_streak = 0
                return control.level
        elif latency_s < HEADROOM_RATIO * target:
            control.headroom_streak += 1
            control.violation_streak = 0
            if control.headroom_streak >= RECOVER_AFTER \
                    and control.level > 0:
                control.level -= 1
                control.headroom_streak = 0
                return control.level
        else:  # dead band: neither violating nor comfortable
            control.violation_streak = 0
            control.headroom_streak = 0
        return None

    def pin(self, session_id: str, level: int) -> int:
        """Force a session's level (an external decision, e.g. shedding).

        Resets both hysteresis streaks so the forced move sticks: a
        session degraded to make room for an overflow admission must earn
        ``RECOVER_AFTER`` fresh headroom frames before climbing back,
        instead of cashing in a streak accumulated before the shed.
        Returns the clamped level actually applied.
        """
        control = self.control(session_id)
        control.level = min(max(int(level), 0), control.max_level)
        control.violation_streak = 0
        control.headroom_streak = 0
        return control.level

    # -- budget weights ----------------------------------------------------------

    def weight(self, session_id: str) -> float:
        """Ray-budget share weight: behind-SLO sessions pull more rays."""
        control = self.sessions.get(session_id)
        if control is None or self.mode != "adaptive" or not control.recent:
            return 1.0
        ratio = control.mean_recent_latency_s / control.target_latency_s
        return min(max(ratio, MIN_WEIGHT), MAX_WEIGHT)
