"""live_closed / live_open: the ``cli serve-live`` process over its TCP protocol.

The server is a subprocess started from the checkout's sources; every
client runs in one asyncio loop in this (the driver's) process and
thread.  ``live_closed`` holds exactly ``min(2, nproc)`` connections,
each opening sessions back to back; ``live_open`` opens sessions on a
seeded Poisson schedule whatever the server is doing, and times each
from the instant it was *due*.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import time

import numpy as np

from e2e_common import (
    REPO_ROOT,
    Spans,
    WorkloadResult,
    digest_of_digests,
    highest_supported_percentile,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
)
from repro.harness.configs import FAST
from repro.server.loadgen import LoadgenOptions, loadgen_schedule
from repro.server.protocol import (
    ProtocolError,
    frame_digest,
    read_message,
    write_message,
)
from repro.workloads import get_workload, parse_mix

now = time.perf_counter

HOST = "127.0.0.1"
LIVE_MIX = "vr-lego:4,dolly-chair:2,vr-headshake:1"
LIVE_FRAMES = 16
SMOKE_FRAMES = 4
# At 6 sessions/s (the issue's rate) every second session overlaps another,
# so the median session sits on the edge between having the server to itself
# and sharing it, and stream_p50 flips between 45 and 78 ms from launch to
# launch (spread 47 % over ten 5 s launches); at 4/s two in three run alone
# and it repeats (spread 9 %).  The queueing tail is ttff_p90 / stream_p90.
OPEN_RATE_HZ = 4.0
# Closed-loop throughput is the median rate over consecutive blocks of this
# many delivered frames (half a second's worth), which a slow half second
# of a shared host does not move; frames over the whole window is a mean.
RATE_BLOCK_FRAMES = 200
# Server processes per run: a launch in five runs a fifth slower than the
# rest on this kind of host, whatever it is sent, so a run pools two.
LAUNCHES = 2
SLO_SLACK_S = 0.100
READY_TIMEOUT_S = 60.0
# Per-read deadline: a dead or wedged server is a failed session, not a hang.
READ_TIMEOUT_S = 20.0
# A closed-loop client stops after this many failed sessions in a row.
MAX_CONSECUTIVE_FAILURES = 3


# -- the server process --------------------------------------------------------------


@contextlib.contextmanager
def live_server():
    """``serve-live --fast --port 0`` as a subprocess; always reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]]
                                    if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "serve-live", "--fast",
         "--port", "0"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def await_ready(proc, timeout_s: float = READY_TIMEOUT_S) -> int:
    """Parse the server's readiness line; returns the ephemeral port."""
    deadline = now() + timeout_s
    seen = b""
    fd = proc.stdout.fileno()
    while True:
        match = re.search(rb"listening on \S+:(\d+)", seen)
        if match:
            return int(match.group(1))
        remaining = deadline - now()
        if remaining <= 0.0:
            raise RuntimeError(f"serve-live not ready after {timeout_s} s; "
                               f"output so far: {seen!r}")
        if select.select([fd], [], [], min(remaining, 0.5))[0]:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"serve-live exited (code {proc.wait()}) "
                                   f"before it was ready: {seen!r}")
            seen += chunk


# -- inputs made from the seed ---------------------------------------------------------


def mix_names(rng, count: int) -> list:
    """``count`` workload names: shuffled copies of the mix, end to end.

    Every 7 consecutive names hold the mix exactly (4 + 2 + 1), so seeds
    change the order sessions come in and not what share of a run each
    workload is; a draw with replacement moves the medians of a 30-session
    run by how many dolly-chair sessions it happened to hold.
    """
    block = [spec.name for spec, copies in parse_mix(LIVE_MIX)
             for _ in range(copies)]
    names = []
    while len(names) < count:
        names.extend(block[i] for i in rng.permutation(len(block)))
    return names[:count]


def closed_plan(seed: int, clients: int, length: int = 4096) -> list:
    """Per client, the seeded order of workload names it opens."""
    rng = np.random.default_rng(seed)
    return [mix_names(rng, length) for _ in range(clients)]


def open_schedule(seed: int, seconds: float) -> list:
    """``[(due_s, workload name)]``: Poisson arrivals at ``OPEN_RATE_HZ``.

    The arrival *count* is fixed at rate x seconds and the last arrival
    lands on ``seconds`` (a Poisson process conditioned on its count), so
    seeds change when sessions arrive and in what order but not how much
    work a run offers.
    """
    count = max(int(round(OPEN_RATE_HZ * seconds)), 1)
    duration = 2.0 * seconds + 1.0
    while True:
        arrivals = loadgen_schedule(LoadgenOptions(
            mix=LIVE_MIX, arrivals="poisson", rate_hz=OPEN_RATE_HZ,
            duration_s=duration, seed=seed))
        if len(arrivals) >= count:
            break
        duration *= 2.0
    stretch = seconds / arrivals[count - 1].time_s
    names = mix_names(np.random.default_rng(seed), count)
    return [(a.time_s * stretch, name)
            for a, name in zip(arrivals[:count], names)]


def expected_digests(seed: int, frames: int) -> dict:
    """Per workload name, the digests of its spec rendered solo in-process."""
    expected = {}
    for spec, _ in parse_mix(LIVE_MIX):
        solo = get_workload(spec.name).with_overrides(
            frames=frames, seed_offset=seed).run_solo(FAST)
        expected[spec.name] = [frame_digest(f) for f in solo.frames]
    return expected


# -- one session ------------------------------------------------------------------------


async def run_session(port: int, name: str, seed: int, frames: int,
                      due_s: float, lane: str) -> dict:
    """Open one connection, stream one session, time every step."""
    rec = {"workload": name, "lane": lane, "due_s": due_s, "status": "ok",
           "start_s": now(), "frame_s": [], "digests": [], "queue_s": [],
           "render_s": []}

    async def read():
        return await asyncio.wait_for(read_message(reader), READ_TIMEOUT_S)

    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(HOST, port), READ_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError) as exc:
        rec["status"] = f"failed: connect {exc!r}"
        return rec
    try:
        hello = await read()
        if hello is None or hello["type"] != "hello":
            rec["status"] = "failed: bad hello"
            return rec
        rec["connected_s"] = now()
        write_message(writer, {"type": "open", "workload": name,
                               "frames": frames, "seed": seed})
        await writer.drain()
        opened = await read()
        if opened is None or opened["type"] != "opened":
            refused = opened is not None and opened["type"] == "error"
            rec["status"] = (f"refused: {opened.get('message')}" if refused
                             else "failed: no opened reply")
            return rec
        rec["opened_s"] = now()
        while True:
            message = await read()
            if message is None:
                rec["status"] = "failed: server hung up"
                return rec
            kind = message["type"]
            if kind == "frame":
                rec["frame_s"].append(now())
                rec["digests"].append(message["digest"])
                rec["queue_s"].append(message["queue_s"])
                rec["render_s"].append(message["render_s"])
            elif kind == "done":
                rec["done_s"] = now()
                return rec
            else:
                rec["status"] = f"failed: {kind} {message.get('message')}"
                return rec
    except asyncio.TimeoutError:
        rec["status"] = f"failed: no reply within {READ_TIMEOUT_S} s"
        return rec
    except (ProtocolError, ConnectionError) as exc:
        rec["status"] = f"failed: {exc!r}"
        return rec
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, asyncio.TimeoutError):
            await asyncio.wait_for(writer.wait_closed(), READ_TIMEOUT_S)


# -- the two loops ----------------------------------------------------------------------


async def closed_loop(port: int, plan: list, seed: int, frames: int,
                      seconds: float) -> list:
    """Each client opens its next session when the previous one is done."""
    deadline = now() + seconds

    async def client(index: int, names: list) -> list:
        records, failures = [], 0
        for name in names:
            if now() >= deadline or failures >= MAX_CONSECUTIVE_FAILURES:
                break
            rec = await run_session(port, name, seed, frames, due_s=now(),
                                    lane=f"client-{index}")
            failures = 0 if rec["status"] == "ok" else failures + 1
            records.append(rec)
        return records

    per_client = await asyncio.gather(
        *[client(i, names) for i, names in enumerate(plan)])
    return [rec for records in per_client for rec in records]


async def open_loop(port: int, schedule: list, seed: int, frames: int,
                    stats: dict) -> list:
    """Every session starts at its due instant whatever the server does."""
    start = now()
    lanes: list = []  # lane index -> is busy (for a readable trace)
    inflight = 0

    async def arrival(due_offset_s: float, name: str) -> dict:
        nonlocal inflight
        due_s = start + due_offset_s
        delay = due_s - now()
        if delay > 0.0:
            await asyncio.sleep(delay)
        stats["late_ms_max"] = max(stats.get("late_ms_max", 0.0),
                                   (now() - due_s) * 1e3)
        if False in lanes:
            lane = lanes.index(False)
            lanes[lane] = True
        else:
            lane = len(lanes)
            lanes.append(True)
        inflight += 1
        stats["inflight_max"] = max(stats.get("inflight_max", 0), inflight)
        try:
            return await run_session(port, name, seed, frames, due_s,
                                     lane=f"open-{lane}")
        finally:
            inflight -= 1
            lanes[lane] = False

    return list(await asyncio.gather(
        *[arrival(due, name) for due, name in schedule]))


async def warm_up(port: int, seed: int, frames: int) -> list:
    """One untimed session per workload name: bakes land in set-up."""
    return [await run_session(port, spec.name, seed, frames, now(), "warm-up")
            for spec, _ in parse_mix(LIVE_MIX)]


# -- metrics ----------------------------------------------------------------------------


def block_rates(times_s: list, block: int = RATE_BLOCK_FRAMES) -> list:
    """Events per second over each consecutive run of ``block`` events."""
    times = sorted(times_s)
    return [block / (times[i + block] - times[i])
            for i in range(0, len(times) - block, block)]


def slo_ok(rec: dict) -> bool:
    """TTFF <= 100 ms and frame k in by due + 100 ms + k / fps_target."""
    if rec["status"] != "ok":
        return False
    fps = get_workload(rec["workload"]).fps_target
    return all(t <= rec["due_s"] + SLO_SLACK_S + k / fps
               for k, t in enumerate(rec["frame_s"]))


def _set_percentile(result: WorkloadResult, name: str, samples, q: float,
                    scale: float = 1.0) -> None:
    value, n = percentile(samples, q)
    result.samples[name] = n
    if value is not None:
        result.metrics[name] = value * scale


def _layer_metrics(result: WorkloadResult, records: list, ok: list,
                   window_s: float, cpu_s: float, loop_stats: dict) -> None:
    frames = sum(len(r["frame_s"]) for r in records)
    queue = [q for r in ok for q in r["queue_s"]]
    gaps = [b - a for r in ok for a, b in zip(r["frame_s"], r["frame_s"][1:])]
    for name, samples, q in (
            ("ttff_p90_ms", [r["frame_s"][0] - r["due_s"] for r in ok], 90),
            ("stream_p90_ms", [r["done_s"] - r["due_s"] for r in ok], 90),
            ("server.connect_ms_p50",
             [r["connected_s"] - r["start_s"] for r in ok], 50),
            ("server.open_ms_p50",
             [r["opened_s"] - r["connected_s"] for r in ok], 50),
            ("server.first_frame_ms_p50",
             [r["frame_s"][0] - r["opened_s"] for r in ok], 50),
            ("server.queue_ms_p50", queue, 50),
            ("server.queue_ms_p90", queue, 90),
            ("server.round_ms_p50", [x for r in ok for x in r["render_s"]], 50),
            ("server.frame_gap_ms_p50", gaps, 50),
            ("server.frame_gap_ms_p99", gaps, 99)):
        _set_percentile(result, name, samples, q, scale=1e3)
    refused = sum(r["status"].startswith("refused") for r in records)
    result.metrics.update({
        "slo_ok_share": sum(slo_ok(r) for r in records) / len(records),
        "server.cpu_s_per_kframe": cpu_s * 1e3 / max(frames, 1),
        "server.delivered_frames_per_s": frames / window_s,
        "server.sessions_ok": len(ok),
        "server.refused": refused,
        "server.failed": len(records) - len(ok) - refused,
        "loadgen.late_ms_max": loop_stats.get("late_ms_max", 0.0),
        "loadgen.inflight_max": loop_stats.get(
            "inflight_max", len({r["lane"] for r in records})),
    })
    # The guide's rule, beside the fixed names: the highest percentile
    # this sample supports (>= 10 samples beyond it), with its count.
    tail_q = highest_supported_percentile(len(ok))
    if tail_q is not None:
        result.notes["tail"] = {
            "percentile": tail_q, "samples": len(ok),
            "ttff_ms": percentile(
                [r["frame_s"][0] - r["due_s"] for r in ok], tail_q)[0] * 1e3,
            "stream_ms": percentile(
                [r["done_s"] - r["due_s"] for r in ok], tail_q)[0] * 1e3}


def _add_session_spans(spans: Spans, launch: int, records: list,
                       window: tuple) -> None:
    root = spans.add("measure", *window, op=f"launch-{launch}")
    for index, r in enumerate(records):
        if r["status"] != "ok":
            continue
        lane, op = r["lane"], f"{r['workload']}#{launch}.{index}"
        session = spans.add("session", r["due_s"], r["done_s"], root, op, lane)
        for name, start, end in (
                ("loadgen.late", r["due_s"], r["start_s"]),
                ("server.connect", r["start_s"], r["connected_s"]),
                ("server.open", r["connected_s"], r["opened_s"]),
                ("server.first_frame", r["opened_s"], r["frame_s"][0]),
                ("server.stream", r["frame_s"][0], r["done_s"])):
            spans.add(name, start, end, session, op, lane)


# -- running a workload -------------------------------------------------------------------


def measure_launch(name: str, seed: int, launch: int, seconds: float,
                   frames: int, clients: int, loop_stats: dict) -> dict:
    """One server process: start it, warm it, run the loop for ``seconds``."""
    launch_start = now()
    with live_server() as proc:
        port = await_ready(proc)

        async def drive() -> dict:
            warm = await warm_up(port, seed, frames)
            setup_s = now() - launch_start
            cpu_before = proc_cpu_s(proc.pid)
            start = now()
            # Each launch replays inputs of its own, made from the run's seed.
            input_seed = seed * LAUNCHES + launch
            if name == "live_closed":
                records = await closed_loop(
                    port, closed_plan(input_seed, clients), seed, frames,
                    seconds)
            else:
                records = await open_loop(
                    port, open_schedule(input_seed, seconds), seed, frames,
                    loop_stats)
            return {"warm": warm, "records": records, "start_s": start,
                    "setup_s": setup_s,
                    "cpu_s": proc_cpu_s(proc.pid) - cpu_before}

        out = asyncio.run(drive())
        out["peak_rss_mb"] = proc_peak_rss_mb(proc.pid)
    return out


def run_live_workload(name: str, seed: int, seconds: float, trace: bool,
                      smoke: bool, process_start_s: float) -> WorkloadResult:
    """``LAUNCHES`` server processes, each warmed and measured for ``seconds``."""
    frames = SMOKE_FRAMES if smoke else LIVE_FRAMES
    clients = min(2, os.cpu_count() or 1)
    result = WorkloadResult(workload=name)
    loop_stats: dict = {}
    expected = expected_digests(seed, frames)
    one_off_s = now() - process_start_s
    launches = [measure_launch(name, seed, launch, seconds, frames, clients,
                               loop_stats) for launch in range(LAUNCHES)]
    warm = [r for out in launches for r in out["warm"]]
    records = [r for out in launches for r in out["records"]]

    # Correctness: an operation is a session; it fails unless it streamed
    # every frame and every digest equals the solo render of its spec.
    for rec in warm + records:
        if rec["status"] == "ok" and rec["digests"] != expected[
                rec["workload"]]:
            rec["status"] = "failed: digest mismatch with the solo render"
    ok = [r for r in records if r["status"] == "ok"]
    result.attempted = len(records)
    result.failed = len(records) - len(ok) + sum(
        r["status"] != "ok" for r in warm)
    result.passes = LAUNCHES
    result.digest = digest_of_digests(
        f"{n}:{d}" for n in sorted(expected) for d in expected[n])
    result.notes["statuses"] = sorted(
        {r["status"] for r in warm + records if r["status"] != "ok"})
    if not ok:
        return result

    # A launch's window runs from its first due instant to its last ``done``.
    windows = [(out["start_s"],
                max((r["done_s"] for r in out["records"]
                     if r["status"] == "ok"), default=out["start_s"]))
               for out in launches]
    window_s = sum(end - start for start, end in windows)
    delivered = sum(len(r["frame_s"]) for r in records)
    ttff_s = [r["frame_s"][0] - r["due_s"] for r in ok]
    stream_s = [r["done_s"] - r["due_s"] for r in ok]
    if name == "live_closed":
        rates = [rate for out in launches for rate in block_rates(
            [t for r in out["records"] for t in r["frame_s"]])]
        frames_per_s = median(rates or [delivered / window_s])
    else:  # set by the schedule, not by the server
        frames_per_s = delivered / window_s
    result.metrics.update({
        "frames_per_s": frames_per_s,
        "ttff_p50_ms": median(ttff_s) * 1e3,
        "stream_p50_ms": median(stream_s) * 1e3,
        # Set-up: what the run does once, plus the median server launch
        # (process start, bakes, readiness, one warm-up session per name).
        "setup_s": one_off_s + median([out["setup_s"] for out in launches]),
        "peak_rss_mb": max(out["peak_rss_mb"] for out in launches),
    })
    result.samples = {"ttff_p50_ms": len(ok), "stream_p50_ms": len(ok)}
    result.raw = {"ttff_ms": [s * 1e3 for s in ttff_s],
                  "stream_ms": [s * 1e3 for s in stream_s],
                  "window_s": [end - start for start, end in windows],
                  "launch_setup_s": [out["setup_s"] for out in launches],
                  "one_off_setup_s": one_off_s,
                  "frames": delivered, "sessions": len(records)}
    if trace:
        _layer_metrics(result, records, ok, window_s,
                       sum(out["cpu_s"] for out in launches), loop_stats)
        result.spans = Spans()
        for launch, (out, window) in enumerate(zip(launches, windows)):
            _add_session_spans(result.spans, launch, out["records"], window)
    return result
