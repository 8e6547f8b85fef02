"""Reactive autoscaling: grow the fleet under load, shrink it when idle.

The autoscaler is evaluated at every simulator event (arrival or frame
completion) and reacts to *mean load per provisioned worker* — resident
sessions divided by live-plus-booting capacity, so a worker already on its
way up suppresses further scale-ups.  Scale-up pays a provisioning
latency (the new worker only starts taking sessions ``scale_up_latency_s``
after the decision); scale-down retires an idle worker immediately.  A
cooldown separates consecutive actions so one burst doesn't thrash the
fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScaleEvent", "Autoscaler"]

# Mean resident sessions per provisioned worker below which an idle worker
# retires.  The scale-up threshold stays above it (hysteresis).
DOWN_LOAD = 0.25


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, for the cluster report's timeline."""

    time_s: float
    action: str  # "up_requested", "up_completed", or "down"
    workers: int  # live worker count after the action took effect


class Autoscaler:
    """Threshold autoscaler over queue depth, with scale-up latency.

    ``up_load`` is mean resident sessions per provisioned worker.
    Admission caps that mean at the controller's ``queue_limit``, so
    ``up_load`` must sit *below* the queue limit or scale-up is
    unreachable and overload is shed as rejects instead (the harness
    couples the two; direct constructors must too).
    """

    def __init__(self, min_workers: int = 1, max_workers: int = 8,
                 up_load: float = 2.0, scale_up_latency_s: float = 1.0,
                 cooldown_s: float = 1.0):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if up_load <= DOWN_LOAD:
            raise ValueError(f"up_load must be > {DOWN_LOAD} (hysteresis)")
        if scale_up_latency_s < 0.0 or cooldown_s < 0.0:
            raise ValueError("latencies must be >= 0")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.up_load = up_load
        self.scale_up_latency_s = scale_up_latency_s
        self.cooldown_s = cooldown_s
        self.events: list = []
        self._last_action_s = float("-inf")

    def evaluate(self, now_s: float, live_workers: list, booting: int):
        """Decide at ``now_s``: ``("up", ready_time)``, ``("down", worker)``,
        or ``None``.

        ``live_workers`` are the fleet's live :class:`~.worker.Worker`
        objects; ``booting`` counts scale-ups still provisioning.
        """
        if now_s - self._last_action_s < self.cooldown_s:
            return None
        provisioned = len(live_workers) + booting
        if provisioned < 1:
            return None
        resident = sum(w.load for w in live_workers)
        mean_load = resident / provisioned
        if mean_load > self.up_load and provisioned < self.max_workers:
            self._last_action_s = now_s
            self.events.append(ScaleEvent(now_s, "up_requested",
                                          len(live_workers)))
            return ("up", now_s + self.scale_up_latency_s)
        if (mean_load < DOWN_LOAD and booting == 0
                and len(live_workers) > self.min_workers):
            # Retire the youngest idle worker (latest start, then spawn
            # order) so the fleet shrinks last-in-first-out.
            idle = [w for w in live_workers
                    if w.load == 0 and w.busy_until_s <= now_s]
            if idle:
                worker = max(idle, key=lambda w: (w.started_s, w.index))
                self._last_action_s = now_s
                self.events.append(ScaleEvent(now_s, "down",
                                              len(live_workers) - 1))
                return ("down", worker)
        return None

    def record_up_completed(self, now_s: float, live_count: int) -> None:
        """Log that a provisioned worker finished booting and took load."""
        self.events.append(ScaleEvent(now_s, "up_completed", live_count))
