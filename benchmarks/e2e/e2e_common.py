"""Pieces every end-to-end workload shares: statistics, spans, host probe.

Nothing here touches the program under test except through
``repro.obs.tracer.Tracer`` (trace export), ``repro.perf.envinfo``
(fingerprint) and ``repro.harness.reporting.safe_json_dumps`` (strict
JSON), all imported lazily so the pure helpers stay importable without
``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]

# A percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def load_contract() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------


def supported_percentile(num_samples: int, q: float) -> bool:
    """Whether ``num_samples`` leaves >= 10 samples beyond percentile ``q``."""
    # 100 - 99.9 is 0.0999...94 in binary floating point: allow for it.
    return num_samples * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def highest_supported_percentile(num_samples: int,
                                 ladder=(50, 90, 95, 99, 99.9)):
    """Highest rung of ``ladder`` the sample supports (``None`` if none)."""
    supported = [q for q in ladder if supported_percentile(num_samples, q)]
    return max(supported) if supported else None


def percentile(samples, q: float):
    """``(value, n)``; ``value`` is ``None`` unless the sample supports ``q``.

    The median (q = 50) is always reported — the rule guards tails.
    """
    samples = list(samples)
    n = len(samples)
    if n == 0 or (q != 50 and not supported_percentile(n, q)):
        return None, n
    return float(np.percentile(samples, q)), n


def median(samples) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest_of_digests(digests) -> str:
    """One SHA-256 over an ordered list of frame digests (eyeball compare)."""
    outer = hashlib.sha256()
    for digest in digests:
        outer.update(str(digest).encode())
    return outer.hexdigest()


# -- spans ---------------------------------------------------------------------


@dataclass
class Spans:
    """In-memory span log of one traced run, written out at exit.

    A span is ``(name, start_s, end_s, parent index, operation id,
    lane)``; spans on one lane nest.  Self time is a span's duration
    minus the part of it its direct children cover.
    """

    rows: list = field(default_factory=list)

    def add(self, name: str, start_s: float, end_s: float,
            parent: int | None = None, op: str | None = None,
            lane: str = "main") -> int:
        """Record one finished span; returns its index (a parent handle)."""
        self.rows.append((name, start_s, end_s, parent, op, lane))
        return len(self.rows) - 1

    def open(self, name: str, parent: int | None = None,
             op: str | None = None, lane: str = "main") -> int:
        """Record a span starting now; finish it with :meth:`close`."""
        now = time.perf_counter()
        return self.add(name, now, now, parent, op, lane)

    def close(self, index: int) -> float:
        """End span ``index`` now; returns its duration in seconds."""
        name, start, _, parent, op, lane = self.rows[index]
        end = time.perf_counter()
        self.rows[index] = (name, start, end, parent, op, lane)
        return end - start

    def self_times(self) -> list:
        """Per-span self time (seconds), index-aligned with ``rows``."""
        children: dict = {}
        for _, start, end, parent, _, _ in self.rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (_, start, end, _, _, _) in enumerate(self.rows):
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append((end - start) - covered)
        return out

    def self_time_by_name(self) -> dict:
        """Total self seconds per span name."""
        totals: dict = {}
        for (name, *_), self_s in zip(self.rows, self.self_times()):
            totals[name] = totals.get(name, 0.0) + self_s
        return totals

    def total_by_name(self) -> dict:
        """Total (inclusive) seconds and call count per span name."""
        totals: dict = {}
        for name, start, end, *_ in self.rows:
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + end - start, calls + 1)
        return totals

    def write_chrome_trace(self, path: Path) -> Path:
        """Export through the program's own ``Tracer`` (Chrome-trace JSON)."""
        from repro.obs.tracer import Tracer
        tracer = Tracer()
        pid = tracer.process("e2e-driver")
        origin = min((row[1] for row in self.rows), default=0.0)
        self_times = self.self_times()
        for index, (name, start, end, parent, op, lane) in enumerate(
                self.rows):
            tracer.complete(
                name, name.split(".")[0], (start - origin) * 1e6,
                (end - start) * 1e6, pid, tracer.thread(pid, lane),
                args={"index": index, "parent": parent, "op": op,
                      "self_us": self_times[index] * 1e6})
        return tracer.write(path)


# -- the instrument's own state ---------------------------------------------------


def calibration_probe_ms() -> float:
    """Wall ms of a fixed matmul + gather: how fast is this host right now.

    Describes the instrument; never used to normalise a metric.  The
    matmul has the shape of the program's MLP decode (many rows, 16
    features): a square one reads 12 or 130 ms here according to how the
    two BLAS threads happen to meet, which says nothing about the host.
    """
    rng = np.random.default_rng(12345)
    features = rng.random((8192, 16))
    weights = rng.random((16, 64))
    table = rng.random(1 << 20)
    index = rng.integers(0, table.size, size=1 << 18)
    start = 0.0
    for step in range(9):
        if step == 1:  # the first round only wakes BLAS and the allocator
            start = time.perf_counter()
        (features @ weights).sum()
        table[index].sum()
    return (time.perf_counter() - start) * 1e3


def host_block(calib_before_ms: float, calib_after_ms: float) -> dict:
    """The ``host.*`` block every output file carries."""
    from repro.perf.envinfo import environment_fingerprint
    return {
        "calib_before_ms": calib_before_ms,
        "calib_after_ms": calib_after_ms,
        "loadavg1": os.getloadavg()[0],
        "cpu_count": os.cpu_count() or 1,
        "fingerprint": environment_fingerprint(),
    }


def driver_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process in MB (0.0 if it is already gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (``/proc/<pid>/stat``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()  # after "(comm)": state is [0]
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids() -> list:
    """Pids of every process whose parent is this one (zombies too)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone between the listing and the read
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:  # ppid
            children.append(int(entry))
    return children


def stop_child_processes() -> int:
    """Stop every process this one started and wait for each; returns how many.

    The one that needs it is multiprocessing's resource tracker, which the
    parallel backend's shared memory starts: it ignores SIGTERM, ends only
    when its pipe closes — after this process has gone, when nobody is left
    to wait for it — and so outlives a ``serve_par2`` run as a zombie.  Its
    pipe is closed and it is waited for here, after whatever else is still
    a child (a pool worker that did not stop in time, and holds the other
    end of that pipe) has been killed and waited for.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)

    def kill_and_wait(pids) -> int:
        count = 0
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                continue  # reaped by its owner between the listing and here
            count += 1
        return count

    stopped = kill_and_wait(p for p in child_pids() if p != tracker_pid)
    if tracker_pid is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()  # closes the pipe, then waits
            stopped += 1
        except OSError:
            pass  # already gone: the sweep below reaps what is left
    return stopped + kill_and_wait(child_pids())


# -- results -------------------------------------------------------------------


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps name -> value (units come from ``BENCHMARK.json``);
    ``samples`` maps name -> sample count for percentile metrics;
    ``raw`` keeps the per-pass / per-session values behind each median.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    passes: int = 0
    digest: str = ""
    notes: dict = field(default_factory=dict)
    skipped: str | None = None
    spans: Spans | None = None

    @property
    def correct(self) -> bool:
        """No failed operation (and at least one attempted)."""
        return self.failed == 0 and self.attempted > 0
