"""Open-loop load generator: seeded arrivals replayed over real sockets.

The generator replays the *same* seeded arrival processes the cluster
simulator consumes (:func:`repro.cluster.arrivals.make_arrivals`)
against a live :class:`~repro.server.FrameServer` — open loop, so a
session's connection opens at its scheduled wall time regardless of how
the server is keeping up, exactly matching the simulator's arrival
semantics.  Each arrival becomes one TCP connection running one
session; the client records each frame's ``FrameTimeline`` in virtual
seconds and summarises with the simulator's own rules
(:mod:`repro.metrics.stats`), so the measured quantiles and a matched
``simulate_cluster`` prediction answer the same question.

Determinism: the schedule (arrival times + workload names) is a pure
function of ``(arrivals, mix, rate_hz, duration_s, seed)``; two runs
with the same seed issue identical request schedules (the wall-clock
*measurements* naturally vary).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..cluster.arrivals import DEFAULT_CLUSTER_MIX, make_arrivals
from ..metrics.stats import (FrameTimeline, in_ms, latency_summary,
                             request_time)
from ..obs.runtime import metric_inc
from .protocol import ProtocolError, read_message, write_message

__all__ = ["LoadgenOptions", "loadgen_schedule", "loadgen_summary",
           "run_loadgen"]


@dataclass(frozen=True)
class LoadgenOptions:
    """One load-generation run (mirrors ``simulate_cluster`` knobs)."""

    mix: str = DEFAULT_CLUSTER_MIX
    arrivals: str = "poisson"
    rate_hz: float = 2.0
    duration_s: float = 4.0
    seed: int = 0
    frames: int | None = None  # per-session frame-count override
    time_scale: float = 1.0  # wall seconds per virtual second
    arrival_trace: str | None = None  # for arrivals="replay"
    connect_timeout_s: float = 30.0

    def __post_init__(self):
        if not self.time_scale > 0.0:
            raise ValueError(
                f"time_scale must be > 0, got {self.time_scale}")


def loadgen_schedule(options: LoadgenOptions) -> list:
    """The seeded arrival schedule this run replays (deterministic).

    Returns :class:`~repro.cluster.arrivals.Arrival` objects in virtual
    seconds; :func:`run_loadgen` maps virtual time ``t`` to wall time
    ``start + t * time_scale``.
    """
    params = ({"trace": options.arrival_trace}
              if options.arrivals == "replay" else {})
    return make_arrivals(options.arrivals, options.mix,
                         rate_hz=options.rate_hz,
                         duration_s=options.duration_s,
                         seed=options.seed, **params)


async def _run_session(host: str, port: int, arrival, options:
                       LoadgenOptions, start_wall: float) -> dict:
    """Open one connection at its scheduled time; measure its frames."""
    target_wall = start_wall + arrival.time_s * options.time_scale
    delay = target_wall - time.perf_counter()
    if delay > 0.0:
        await asyncio.sleep(delay)
    record = {
        "workload": arrival.spec.name,
        "scheduled_s": arrival.time_s,
        "start_skew_s": time.perf_counter() - target_wall,
        "status": "ok",
        "timelines": [],  # virtual seconds since the run started
        "digests": [],
    }
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port),
            timeout=options.connect_timeout_s)
    except (OSError, asyncio.TimeoutError) as exc:
        record["status"] = f"connect_failed: {exc}"
        metric_inc("loadgen.connect_failed")
        return record
    try:
        hello = await read_message(reader)
        if hello is None or hello["type"] != "hello":
            record["status"] = "bad_hello"
            return record
        open_message = {"type": "open", "workload": arrival.spec.name,
                        "seed": options.seed}
        if options.frames is not None:
            open_message["frames"] = options.frames
        write_message(writer, open_message)
        await writer.drain()
        opened = await read_message(reader)
        if opened is None or opened["type"] != "opened":
            reason = "server_hung_up" if opened is None else (
                opened.get("message", opened["type"])
                if opened["type"] == "error"
                else f"unexpected_message: {opened['type']}")
            record["status"] = str(reason)
            return record
        while True:
            message = await read_message(reader)
            if message is None:
                record["status"] = "server_hung_up"
                return record
            kind = message["type"]
            if kind == "frame":
                # The client sees only delivery, not when service began.
                finish_s = ((time.perf_counter() - start_wall)
                            / options.time_scale)
                record["timelines"].append(FrameTimeline(request_time(
                    arrival.time_s, len(record["timelines"]),
                    arrival.spec.fps_target), finish_s, finish_s))
                record["digests"].append(message["digest"])
                metric_inc("loadgen.frames")
            elif kind == "done":
                return record
            elif kind == "error":
                record["status"] = f"server_error: {message['message']}"
                return record
            else:
                record["status"] = f"unexpected_message: {kind}"
                return record
    except ProtocolError as exc:
        record["status"] = f"protocol_error: {exc}"
        return record
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def run_loadgen(host: str, port: int,
                      options: LoadgenOptions) -> dict:
    """Replay the seeded schedule on a live server; its summary."""
    schedule = loadgen_schedule(options)
    start_wall = time.perf_counter()
    sessions = await asyncio.gather(*[
        _run_session(host, port, arrival, options, start_wall)
        for arrival in schedule])
    return loadgen_summary(options, schedule, sessions,
                           time.perf_counter() - start_wall)


def loadgen_summary(options: LoadgenOptions, schedule: list,
                    sessions: list, elapsed_s: float) -> dict:
    """The run's JSON-safe summary: the request ``schedule`` (for
    determinism checks), per-session records, and :func:`latency_summary`
    of the ``ok`` sessions as ``*_ms`` keys, like the cluster report."""
    ok = [s for s in sessions if s["status"] == "ok"]
    return {
        "mix": options.mix,
        "arrivals": options.arrivals,
        "rate_hz": options.rate_hz,
        "duration_s": options.duration_s,
        "seed": options.seed,
        "frames": options.frames,
        "time_scale": options.time_scale,
        "arrival_trace": options.arrival_trace,
        "schedule": [{"t": a.time_s, "workload": a.spec.name}
                     for a in schedule],
        "sessions": sessions,
        "sessions_total": len(sessions),
        "sessions_ok": len(ok),
        "frames_total": sum(len(s["timelines"]) for s in sessions),
        "elapsed_wall_s": elapsed_s,
        **in_ms(latency_summary((s["scheduled_s"], s["timelines"])
                                for s in ok)),
    }
