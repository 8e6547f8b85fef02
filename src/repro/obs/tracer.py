"""Structured event tracer exporting Chrome Trace Event JSON.

The tracer records what the serving stack *did* — engine rounds, frame
lifecycles, governor transitions, cache hits, pool dispatches, cluster
events — as spans and instants on the run's virtual clock, then writes
the standard Trace Event format that ``chrome://tracing`` and Perfetto
load directly.

Lane model (matching the issue contract): **pids are workers** (one
process lane per cluster worker, plus a ``cluster`` lane for the
control plane and a ``soc``/``engine`` lane for single-machine serve
runs) and **tids are sessions** (plus bookkeeping threads like
``rounds`` or ``governor``).  Lanes are registered lazily via
:meth:`Tracer.process` / :meth:`Tracer.thread`, which also emit the
``process_name`` / ``thread_name`` metadata events viewers use for
labels.

Timestamps are microseconds (the format's native unit).  Cluster and
serve layers have real virtual clocks (seconds → us).  Engine rounds
have no clock of their own, so engine spans run on a synthetic *work
clock*: 1 ray of rendering work = :data:`WORK_US_PER_RAY` us.  A
worker admitting a session renders it whole at one virtual instant, so
its engine spans are drawn as a short work-clock burst starting at the
admit time — ordering and relative widths are faithful, absolute
engine durations are work units, not seconds.

Recording never mutates measured state and allocates only appended
dicts, so traced runs stay bit-identical to untraced runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "WORK_US_PER_RAY"]

# Synthetic engine work clock: 1 ray = 1 ns of trace time.  Engine
# rounds at FAST scale render ~1e4-1e6 rays, mapping to 10 us - 1 ms
# spans — wide enough to inspect, narrow enough to sit believably
# inside a cluster admit instant.
WORK_US_PER_RAY = 1e-3


class Tracer:
    """Collects Trace Event dicts; write once at end of run.

    Use :meth:`process`/:meth:`thread` to get stable integer lane ids
    for labels, :meth:`complete` for spans, :meth:`instant` for point
    events, and :meth:`scope` to tell nested layers (the engine inside
    a cluster worker) which pid and clock offset to emit under.
    """

    def __init__(self):
        self._events: list[dict] = []
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        # (pid, base_us) stack pushed by scope(); lets the engine emit
        # into whichever worker lane admitted it without plumbing the
        # tracer through every constructor.
        self._scopes: list[tuple[int, float]] = []

    def __len__(self) -> int:
        return len(self._events)

    # -- lanes -----------------------------------------------------------------

    def process(self, label: str) -> int:
        """Stable pid for ``label``; registers viewer metadata once."""
        pid = self._pids.get(label)
        if pid is None:
            pid = self._pids[label] = len(self._pids) + 1
            self._events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        return pid

    def thread(self, pid: int, label: str) -> int:
        """Stable tid for ``label`` within ``pid``; metadata once."""
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = sum(
                1 for p, _ in self._tids if p == pid) + 1
            self._events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return tid

    # -- events ----------------------------------------------------------------

    def complete(self, name: str, cat: str, ts_us: float, dur_us: float,
                 pid: int, tid: int, args: dict | None = None) -> None:
        """Record a complete ("X") span at [ts_us, ts_us + dur_us]."""
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": float(ts_us), "dur": max(float(dur_us), 0.0),
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(self, name: str, cat: str, ts_us: float,
                pid: int, tid: int, args: dict | None = None) -> None:
        """Record an instant ("i") event at ``ts_us``."""
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": float(ts_us), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    # -- scoping ---------------------------------------------------------------

    @contextmanager
    def scope(self, label: str, base_us: float = 0.0):
        """Route nested layers' events into the ``label`` process lane.

        The cluster simulator wraps each ``worker.admit`` in
        ``tracer.scope(f"worker {id}", base_us=now_s * 1e6)`` so the
        engine's work-clock spans land inside that worker's lane at the
        admit instant.
        """
        pid = self.process(label)
        self._scopes.append((pid, float(base_us)))
        try:
            yield pid
        finally:
            self._scopes.pop()

    def current_scope(self):
        """(pid, base_us) of the innermost scope, or the ``engine`` lane."""
        if self._scopes:
            return self._scopes[-1]
        return self.process("engine"), 0.0

    # -- export ----------------------------------------------------------------

    def to_payload(self) -> dict:
        """The Trace Event JSON object (``{"traceEvents": [...]}``)."""
        return {"traceEvents": list(self._events),
                "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Write strict Trace Event JSON to ``path``; returns the path."""
        from ..harness.reporting import safe_json_dumps

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(safe_json_dumps(self.to_payload()) + "\n")
        return path
