"""The asyncio frame server: real connections, one shared batched engine.

Architecture: the asyncio event loop owns the sockets and the protocol
state machine; one dedicated *engine-host* thread owns the existing
:class:`~repro.engine.MultiSessionEngine` and drives it round by round
(:meth:`~repro.engine.MultiSessionEngine.run_round`), so concurrent
connections batch their ray work into shared field evaluations and hit
the shared cross-session caches exactly like the simulated serving
paths — the rendering results are bit-identical to solo rendering
(locked by ``tests/server/test_server_live.py``).  With the cell's
caches on, one render memo lives as long as the server: every session
built and every round served answers repeated NeRF requests, SPARW
target frames and trajectories from it, so a session whose content an
earlier one drew evaluates no field at all.  Session *builds*
(field baking through the thread-safe, single-flight
:data:`~repro.workloads.cache.FIELD_CACHE`) run on a small worker
thread pool so a cold-cache open never stalls the event loop or the
render rounds.

Failure: if a round raises, the engine-host thread stops, every admitted
session receives an ``error`` message, and every later ``open`` is
refused with the same message — a crash is never a silent hang.

Configuration: a server takes the validated ``realserve``
:class:`~repro.harness.runconfig.RunConfig` the ``serve-live`` and
``loadgen`` commands build, so every server knob is declared once, as a
field of that cell.  The session-build pool size and the admission cap
are constants (:data:`BUILD_WORKERS`, :data:`MAX_SESSIONS`).

Wall-clock observability: each frame carries ``queue_s`` (time the
session spent waiting for its round) and ``render_s`` (its round's
render time); while a tracer is active the host additionally emits
``server.round``/``frame.serve`` spans in the same Chrome-trace schema
the virtual-clock layers use, timestamped on the real clock.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..control import EngineGovernor, start_level
from ..obs.runtime import current_tracer, metric_inc, metric_observe
from ..workloads import apply_slo, get_workload
from ..workloads.cache import (REFERENCE_CACHE, make_render_memo,
                               record_render_memo)
from .protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    frame_digest,
    read_message,
    write_message,
)

__all__ = ["FrameServer"]

BUILD_WORKERS = 2  # session-build thread pool size
MAX_SESSIONS = 64  # admission cap across live connections


class _EngineHost:
    """One thread serving engine rounds for every live connection.

    Connections :meth:`admit` sessions (with an ``asyncio.Queue`` the
    host feeds, through the event loop, with ``(kind, payload, done)``
    items) and :meth:`retire` them on close.  Both only record the
    request: the host thread applies it to the engine between rounds,
    so the event loop never waits for a round in flight.  The host
    blocks on a condition variable while nothing is runnable, so an
    idle server burns no CPU.

    If serving raises, the thread stops: :attr:`error` records why,
    every admitted session's queue gets an ``("error", message, True)``
    item, and so does any session admitted afterwards.
    """

    def __init__(self, engine, loop):
        self._engine = engine
        self._loop = loop
        self._cond = threading.Condition()
        self._queues: dict = {}  # session_id -> asyncio.Queue
        self._ready_s: dict = {}  # session_id -> perf_counter ready time
        self._admitting: dict = {}  # session_id -> session to admit
        self._retiring: set = set()  # session ids to retire
        self._stop = False
        self.error: str | None = None  # set once serving has crashed
        self.epoch_s = time.perf_counter()  # wall anchor for trace spans
        self._thread = threading.Thread(target=self._run,
                                        name="engine-host", daemon=True)

    # -- lifecycle (event-loop thread) -----------------------------------------

    def start(self) -> None:
        """Start the engine-host thread."""
        self._thread.start()

    def stop(self) -> None:
        """Wake the host thread and join it (idempotent)."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=30.0)

    def admit(self, session, queue: asyncio.Queue) -> None:
        """Hand a built session to the engine; ``queue`` receives a
        ``("frames", payloads, done)`` item per round that completed
        frames (or the host's ``("error", message, True)``)."""
        with self._cond:
            self._queues[session.session_id] = queue
            if self.error is not None:
                self._post(queue, ("error", self.error, True))
                return
            self._admitting[session.session_id] = session
            self._ready_s[session.session_id] = time.perf_counter()
            self._cond.notify()

    def retire(self, session_id: str) -> None:
        """Stop serving (idempotent; late round results are dropped; a
        session retired before the host admitted it never renders)."""
        with self._cond:
            if self._queues.pop(session_id, None) is None:
                return
            self._ready_s.pop(session_id, None)
            if self._admitting.pop(session_id, None) is None:
                self._retiring.add(session_id)
            self._cond.notify()

    def _post(self, queue: asyncio.Queue, item: tuple) -> None:
        self._loop.call_soon_threadsafe(queue.put_nowait, item)

    # -- the host thread --------------------------------------------------------

    def _runnable(self) -> bool:
        """A request to apply, or an admitted session still rendering."""
        return bool(self._admitting or self._retiring) or any(
            not s.done for s in self._engine.sessions)

    def _apply_requests(self) -> None:
        """Apply the recorded admissions and retirements (holds _cond)."""
        for session in self._admitting.values():
            self._engine.admit(session)
        for session_id in self._retiring:
            self._engine.retire(session_id)
        self._admitting, self._retiring = {}, set()

    def _run(self) -> None:
        try:
            with self._engine.serving():
                self._serve_rounds()
        except Exception as exc:  # any crash must reach every client
            self._fail(f"engine failed: {type(exc).__name__}: {exc}")

    def _serve_rounds(self) -> None:
        while True:
            with self._cond:
                self._apply_requests()
                # Every request and stop() notifies under _cond, so no
                # wakeup is lost between the check and the wait.
                while not self._stop and not self._runnable():
                    self._cond.wait()
                if self._stop:
                    return
            round_start = time.perf_counter()
            completed = self._engine.run_round()
            round_end = time.perf_counter()
            if completed:
                self._dispatch(completed, round_start, round_end)

    def _fail(self, message: str) -> None:
        """Record the crash and send ``error`` to every admitted session."""
        with self._cond:
            self.error = message
            for queue in self._queues.values():
                self._post(queue, ("error", message, True))

    def _dispatch(self, completed, round_start: float,
                  round_end: float) -> None:
        render_s = round_end - round_start
        self._trace_round(round_start, round_end, len(completed))
        for session, records in completed:
            session_id = session.session_id
            with self._cond:
                queue = self._queues.get(session_id)
                if queue is None:  # retired mid-round: drop the late frames
                    continue
                ready_s = self._ready_s[session_id]
                self._ready_s[session_id] = round_end
            queue_s = max(round_start - ready_s, 0.0)
            payloads = [{
                "type": "frame",
                "session": session_id,
                "index": record.frame_index,
                "new_reference": bool(record.new_reference),
                "digest": frame_digest(record.frame),
                "queue_s": queue_s,
                "render_s": render_s,
                "t_server_s": round_end - self.epoch_s,
            } for record in records]
            self._trace_frames(session_id, records, ready_s, round_end)
            metric_inc("server.frames", len(payloads))
            metric_observe("server.frame_render_s", render_s)
            self._post(queue, ("frames", payloads, session.done))

    # -- wall-clock tracing ------------------------------------------------------

    def _trace_round(self, round_start: float, round_end: float,
                     sessions: int) -> None:
        tracer = current_tracer()
        if tracer is None:
            return
        pid = tracer.process("server")
        tracer.complete(
            "server.round", "server",
            (round_start - self.epoch_s) * 1e6,
            (round_end - round_start) * 1e6,
            pid, tracer.thread(pid, "rounds"),
            args={"sessions": sessions})

    def _trace_frames(self, session_id: str, records, ready_s: float,
                      round_end: float) -> None:
        tracer = current_tracer()
        if tracer is None:
            return
        pid = tracer.process("server")
        tid = tracer.thread(pid, session_id)
        tracer.complete(
            "frame.serve", "frame", (ready_s - self.epoch_s) * 1e6,
            (round_end - ready_s) * 1e6, pid, tid,
            args={"session": session_id, "frames": len(records),
                  "first_index": records[0].frame_index})


class FrameServer:
    """JSON-lines frame server over TCP (see :mod:`.protocol`).

    One session per connection: the client opens with a registered
    :class:`~repro.workloads.WorkloadSpec` name, the server builds the
    session on the worker pool, admits it into the shared engine, and
    streams frame messages until the trajectory completes (``done``)
    or the client closes early (``close``/EOF → ``closed``).

    ``config`` is the :class:`ExperimentConfig` scale sessions build at;
    ``cell`` is the validated ``realserve`` :class:`RunConfig` whose
    host, port, governor, SLO and cache fields configure the server.
    ``use_cache`` attaches both the process-wide reference cache and the
    server's :attr:`render_memo`.
    """

    def __init__(self, config, cell):
        self.config = config
        self.cell = cell
        self._server: asyncio.AbstractServer | None = None
        self._host_thread: _EngineHost | None = None
        self._build_pool: ThreadPoolExecutor | None = None
        self._session_seq = 0
        # Connections holding an admission slot, from before their build
        # to their close (event-loop thread only).
        self._slots = 0
        self._governor = None
        # Set by start() when the cell's caches are on.
        self.render_memo = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "FrameServer":
        """Bind the socket and start the engine-host thread."""
        from ..engine import MultiSessionEngine
        cell = self.cell
        if cell.governor != "off":
            self._governor = EngineGovernor(self.config, mode=cell.governor)
        if cell.use_cache:
            self.render_memo = make_render_memo()
        engine = MultiSessionEngine(
            [], reference_cache=REFERENCE_CACHE if cell.use_cache else None,
            governor=self._governor, render_memo=self.render_memo)
        loop = asyncio.get_running_loop()
        self._host_thread = _EngineHost(engine, loop)
        self._build_pool = ThreadPoolExecutor(
            max_workers=BUILD_WORKERS, thread_name_prefix="session-build")
        self._server = await asyncio.start_server(
            self._handle, host=cell.effective("host"),
            port=cell.effective("port"))
        self._host_thread.start()
        return self

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket, stop the engine host, release the pool.

        The render memo's lookups over the server's life are added to the
        active metrics as ``server.render_memo.*``.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._host_thread is not None:
            self._host_thread.stop()
        if self._build_pool is not None:
            self._build_pool.shutdown(wait=False)
        if self.render_memo is not None:
            record_render_memo(self.render_memo, "server")

    # -- connection handling ----------------------------------------------------

    def _resolve_spec(self, message: dict):
        """The session spec an ``open`` message asks for (validated)."""
        name = message.get("workload")
        if not isinstance(name, str):
            raise ProtocolError("open needs a string 'workload' name")
        spec = get_workload(name)  # KeyError lists valid names
        # type() rather than isinstance(): JSON true/false decode to
        # bool, which is an int subclass.
        frames = message.get("frames")
        if frames is not None and (type(frames) is not int or frames < 1):
            raise ProtocolError("open 'frames' must be a positive int")
        seed = message.get("seed")
        if seed is not None and type(seed) is not int:
            raise ProtocolError("open 'seed' must be an int")
        [(spec, _)] = apply_slo([(spec, 1)], self.cell.slo_fps)
        return spec.with_overrides(frames=frames, seed_offset=seed)

    def _build_session(self, spec, session_id: str):
        """Build one engine session (runs on the build pool)."""
        return spec.build_session(
            session_id, self.config,
            level=start_level(self.cell.governor, spec.max_quality_level),
            memo=self.render_memo)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        metric_inc("server.connections")
        session_id = None  # set once this connection holds a slot
        host = self._host_thread
        try:
            write_message(writer, {
                "type": "hello", "server": "repro-frame-server",
                "schema": PROTOCOL_SCHEMA})
            await writer.drain()
            try:
                message = await read_message(reader)
            except ProtocolError as exc:
                await self._fail(writer, str(exc))
                return
            if message is None:
                return
            if message["type"] != "open":
                await self._fail(
                    writer, f"expected 'open', got {message['type']!r}")
                return
            try:
                spec = self._resolve_spec(message)
            except (ProtocolError, KeyError) as exc:
                await self._fail(writer, str(exc.args[0]))
                return
            if host.error is not None:
                await self._fail(writer, host.error)
                return
            if self._slots >= MAX_SESSIONS:
                await self._fail(writer,
                                 f"at capacity ({MAX_SESSIONS} sessions)")
                return
            # The slot is held across the build, up to the close below.
            self._slots += 1
            self._session_seq += 1
            session_id = f"{spec.name}#{self._session_seq:04d}"
            loop = asyncio.get_running_loop()
            try:  # e.g. a failed bake: the client hears why, never EOF
                session = await loop.run_in_executor(
                    self._build_pool, self._build_session, spec, session_id)
            except Exception as exc:
                await self._fail(writer, "session build failed: "
                                 f"{type(exc).__name__}: {exc}")
                return

            queue: asyncio.Queue = asyncio.Queue()
            host.admit(session, queue)
            write_message(writer, {
                "type": "opened", "session": session_id,
                "workload": spec.name, "frames": session.num_frames})
            await writer.drain()
            closer = asyncio.ensure_future(
                self._watch_close(reader, queue))
            try:
                await self._stream(writer, queue, session_id)
            finally:
                closer.cancel()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # peer vanished; retirement below cleans up
        finally:
            if session_id is not None:
                host.retire(session_id)
                self._slots -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _watch_close(self, reader, queue) -> None:
        """Turn a client ``close`` (or EOF) into a queue sentinel."""
        try:
            while True:
                message = await read_message(reader)
                if message is None or message["type"] == "close":
                    queue.put_nowait(("closed", None, True))
                    return
                # Any other mid-stream message is a protocol error.
                queue.put_nowait(("bad", message["type"], True))
                return
        except ProtocolError:
            queue.put_nowait(("bad", "unparseable", True))
        except asyncio.CancelledError:
            raise

    async def _stream(self, writer, queue, session_id: str) -> None:
        """Forward queued frame payloads until done/closed/error."""
        delivered = 0
        while True:
            kind, payload, done = await queue.get()
            if kind == "frames":
                for frame in payload:
                    write_message(writer, frame)
                delivered += len(payload)
                await writer.drain()
                if done:
                    write_message(writer, {
                        "type": "done", "session": session_id,
                        "frames": delivered})
                    await writer.drain()
                    return
            elif kind == "closed":
                write_message(writer, {
                    "type": "closed", "session": session_id,
                    "frames_delivered": delivered})
                await writer.drain()
                return
            elif kind == "error":  # the engine host crashed
                await self._fail(writer, payload)
                return
            else:  # "bad": protocol violation mid-stream
                await self._fail(
                    writer, f"unexpected mid-stream message {payload!r}")
                return

    @staticmethod
    async def _fail(writer, message: str) -> None:
        write_message(writer, {"type": "error", "message": message})
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
