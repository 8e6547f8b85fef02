"""Live FrameServer over real sockets: parity, protocol, teardown.

The headline property: frames served to concurrent TCP clients are
bit-identical to solo rendering (digest-for-digest), because every
connection feeds the same batched engine and shared caches as the
virtual-clock paths.  This is also the test that fails against a
pre-fix (unlocked) ``SharedLRUCache``: concurrent session builds race
on ``FIELD_CACHE`` from the server's worker threads.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.sparw import pipeline
from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig
from repro.nerf.renderer import NeRFRenderer
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observation, activate
from repro.server import (
    FrameServer,
    frame_digest,
    read_message,
    write_message,
)
from repro.server import server as server_module
from repro.server.server import _EngineHost
from repro.workloads import cache as cache_module
from repro.workloads import get_workload


async def _client(port: int, workload: str, frames=None, seed=None,
                  close_after=None) -> dict:
    """One scripted protocol conversation; returns everything received."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    result = {"frames": [], "final": None}
    try:
        result["hello"] = await read_message(reader)
        message = {"type": "open", "workload": workload}
        if frames is not None:
            message["frames"] = frames
        if seed is not None:
            message["seed"] = seed
        write_message(writer, message)
        await writer.drain()
        result["opened"] = await read_message(reader)
        if result["opened"] is None or result["opened"]["type"] != "opened":
            result["final"] = result["opened"]
            return result
        while True:
            message = await read_message(reader)
            if message is None or message["type"] != "frame":
                result["final"] = message
                return result
            result["frames"].append(message)
            if (close_after is not None
                    and len(result["frames"]) >= close_after):
                write_message(writer, {"type": "close"})
                await writer.drain()
                close_after = None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _with_server(coro_factory, **cell_fields):
    """Run one async scenario against a fresh live server configured by a
    ``realserve`` cell with ``cell_fields``."""
    async def scenario():
        cell = RunConfig(mode="realserve", **cell_fields).validate()
        server = FrameServer(FAST, cell)
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(scenario())


def _solo_digests(workload: str, frames: int, seed=None, level=0) -> list:
    """Digest sequence of the same session rendered the classic way."""
    spec = get_workload(workload).with_overrides(frames=frames,
                                                seed_offset=seed)
    session = spec.build_session("solo", FAST, level=level)
    MultiSessionEngine([session]).run()
    return [frame_digest(record.frame)
            for record in session.result.records]


class TestSingleClient:
    def test_full_stream_matches_solo_render(self):
        result = _with_server(
            lambda server: _client(server.port, "vr-lego", frames=3))
        assert result["hello"]["type"] == "hello"
        assert result["opened"]["workload"] == "vr-lego"
        assert result["opened"]["frames"] == 3
        assert result["final"]["type"] == "done"
        assert result["final"]["frames"] == 3
        assert [f["index"] for f in result["frames"]] == [0, 1, 2]
        assert ([f["digest"] for f in result["frames"]]
                == _solo_digests("vr-lego", 3))

    def test_frames_carry_wall_clock_timestamps(self):
        result = _with_server(
            lambda server: _client(server.port, "vr-lego", frames=2))
        for frame in result["frames"]:
            assert frame["queue_s"] >= 0.0
            assert frame["render_s"] > 0.0
            assert frame["t_server_s"] > 0.0

    def test_seed_override_changes_the_trajectory(self):
        # walk-materials samples its trajectory from the seed, so the
        # override must reach the server-side session build.
        plain = _with_server(
            lambda server: _client(server.port, "walk-materials",
                                   frames=2))
        seeded = _with_server(
            lambda server: _client(server.port, "walk-materials",
                                   frames=2, seed=9))
        assert ([f["digest"] for f in seeded["frames"]]
                == _solo_digests("walk-materials", 2, seed=9))
        assert ([f["digest"] for f in seeded["frames"]]
                != [f["digest"] for f in plain["frames"]])


class TestConcurrentClients:
    def test_concurrent_streams_bit_identical_to_solo(self):
        expected = {name: _solo_digests(name, 2)
                    for name in ("vr-lego", "dolly-chair")}

        async def scenario(server):
            return await asyncio.gather(*[
                _client(server.port, name, frames=2)
                for name in ("vr-lego", "dolly-chair",
                             "vr-lego", "dolly-chair", "vr-lego")])

        results = _with_server(scenario)
        assert all(r["final"]["type"] == "done" for r in results)
        for result in results:
            workload = result["opened"]["workload"]
            assert ([f["digest"] for f in result["frames"]]
                    == expected[workload])

    def test_sessions_get_unique_ids(self):
        async def scenario(server):
            return await asyncio.gather(*[
                _client(server.port, "vr-lego", frames=1)
                for _ in range(3)])

        results = _with_server(scenario)
        ids = [r["opened"]["session"] for r in results]
        assert len(set(ids)) == 3


class TestGovernor:
    """The cell's governor and SLO reach the live engine's sessions."""

    def test_static_cell_serves_frame_zero_at_the_deepest_rung(self):
        result = _with_server(
            lambda server: _client(server.port, "vr-lego", frames=1),
            governor="static")
        deepest = get_workload("vr-lego").max_quality_level
        assert deepest > 0
        digest = result["frames"][0]["digest"]
        assert digest == _solo_digests("vr-lego", 1, level=deepest)[0]
        assert digest != _solo_digests("vr-lego", 1)[0]

    def test_slo_cell_sets_the_governed_latency_target(self):
        async def scenario(server):
            result = await _client(server.port, "vr-lego", frames=1)
            control = server._governor.governor.control(
                result["opened"]["session"])
            return control.target_latency_s

        assert get_workload("vr-lego").effective_slo_fps != 12.5
        target_s = _with_server(scenario, governor="adaptive", slo_fps=12.5)
        assert target_s == 1.0 / 12.5


class TestClose:
    def test_graceful_close_mid_stream(self):
        async def scenario(server):
            early = await _client(server.port, "vr-lego", frames=8,
                                  close_after=1)
            # The server must stay fully serviceable afterwards.
            follow_up = await _client(server.port, "vr-lego", frames=2)
            return early, follow_up

        early, follow_up = _with_server(scenario)
        assert early["final"]["type"] == "closed"
        assert early["final"]["frames_delivered"] >= 1
        assert len(early["frames"]) < 8
        assert follow_up["final"]["type"] == "done"
        assert ([f["digest"] for f in follow_up["frames"]]
                == _solo_digests("vr-lego", 2))

    def test_client_vanishing_is_tolerated(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await read_message(reader)
            write_message(writer, {"type": "open", "workload": "vr-lego",
                                   "frames": 8})
            await writer.drain()
            await read_message(reader)  # opened
            writer.close()  # hang up without a close message
            await writer.wait_closed()
            return await _client(server.port, "vr-lego", frames=2)

        follow_up = _with_server(scenario)
        assert follow_up["final"]["type"] == "done"


class TestRejection:
    @pytest.mark.parametrize("open_message, match", [
        ({"type": "open", "workload": "no-such-workload"}, "unknown"),
        ({"type": "open"}, "workload"),
        ({"type": "open", "workload": "vr-lego", "frames": 0}, "frames"),
        ({"type": "open", "workload": "vr-lego", "frames": True}, "frames"),
        ({"type": "open", "workload": "vr-lego", "seed": False}, "seed"),
        ({"type": "frame"}, "expected 'open'"),
    ])
    def test_bad_open_gets_error_message(self, open_message, match):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                await read_message(reader)
                write_message(writer, open_message)
                await writer.drain()
                return await read_message(reader)
            finally:
                writer.close()
                await writer.wait_closed()

        reply = _with_server(scenario)
        assert reply["type"] == "error"
        assert match in reply["message"]

    def test_failed_session_build_is_an_error_and_server_lives_on(
            self, monkeypatch):
        build = FrameServer._build_session

        def build_failing(server, spec, session_id):
            if spec.name == "dolly-chair":
                raise OSError("injected bake failure")
            return build(server, spec, session_id)

        monkeypatch.setattr(FrameServer, "_build_session", build_failing)

        async def scenario(server):
            failed = await _client(server.port, "dolly-chair")
            later = await _client(server.port, "vr-lego", frames=2)
            return failed, later

        failed, later = _with_server(scenario)
        assert failed["opened"] == {
            "type": "error",
            "message": "session build failed: OSError: injected bake failure"}
        assert later["final"]["type"] == "done"
        assert len(later["frames"]) == 2

    def test_port_is_ephemeral_and_reported(self):
        async def scenario(server):
            return server.port

        port = _with_server(scenario)
        assert 1024 <= port <= 65535


class TestCapacity:
    """An admission slot is held from before the build to the close."""

    @pytest.fixture
    def one_slot(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_SESSIONS", 1)

    def test_concurrent_opens_cannot_overrun_the_cap(self, one_slot):
        async def scenario(server):
            first = await asyncio.gather(*[
                _client(server.port, "vr-lego", frames=2)
                for _ in range(3)])
            return first, await _client(server.port, "vr-lego", frames=2)

        first, later = _with_server(scenario)
        opened = [r for r in first if r["opened"]["type"] == "opened"]
        refused = [r for r in first if r["opened"]["type"] == "error"]
        assert len(opened) == 1 and len(refused) == 2
        assert opened[0]["final"]["type"] == "done"
        assert all("at capacity (1 sessions)" in r["opened"]["message"]
                   for r in refused)
        assert later["final"]["type"] == "done"
        assert len(later["frames"]) == 2

    def test_failed_build_releases_its_slot(self, one_slot, monkeypatch):
        build = FrameServer._build_session

        def build_failing(server, spec, session_id):
            if spec.name == "dolly-chair":
                raise OSError("injected bake failure")
            return build(server, spec, session_id)

        monkeypatch.setattr(FrameServer, "_build_session", build_failing)

        async def scenario(server):
            failed = await _client(server.port, "dolly-chair")
            return failed, await _client(server.port, "vr-lego", frames=1)

        failed, later = _with_server(scenario)
        assert failed["opened"]["type"] == "error"
        assert later["final"]["type"] == "done"


class _WorkSpy:
    """Counts the NeRF bundles the engine evaluates and the targets warped."""

    def __init__(self, monkeypatch):
        self.bundles = 0
        self.warps = 0
        spy = self
        render_ray_batch = NeRFRenderer.render_ray_batch
        warp_frame = pipeline.warp_frame

        def spy_render(renderer, bundles):
            spy.bundles += len(bundles)
            return render_ray_batch(renderer, bundles)

        def spy_warp(*args):
            spy.warps += 1
            return warp_frame(*args)

        monkeypatch.setattr(NeRFRenderer, "render_ray_batch", spy_render)
        monkeypatch.setattr(pipeline, "warp_frame", spy_warp)

    def take(self) -> tuple:
        """``(bundles, warps)`` since the last call."""
        counts = (self.bundles, self.warps)
        self.bundles = self.warps = 0
        return counts


async def _back_to_back(server, spy, workload: str, frames: int) -> list:
    """Two sequential sessions: ``[(result, (bundles, warps)), ...]``."""
    spy.take()
    runs = []
    for _ in range(2):
        result = await _client(server.port, workload, frames=frames)
        runs.append((result, spy.take()))
    return runs


class TestRenderMemo:
    """One render memo per server: repeats cost no field evaluation."""

    def test_repeat_session_evaluates_no_bundle_and_warps_no_target(
            self, monkeypatch):
        spy = _WorkSpy(monkeypatch)
        metrics = MetricsRegistry()

        async def scenario(server):
            runs = await _back_to_back(server, spy, "vr-headshake", 4)
            return runs, server.render_memo

        with activate(Observation(metrics=metrics)):
            runs, memo = _with_server(scenario)
        expected = _solo_digests("vr-headshake", 4)
        for result, _ in runs:
            assert result["final"]["type"] == "done"
            assert [f["digest"] for f in result["frames"]] == expected
        (_, first), (_, second) = runs
        assert first[0] > 0 and first[1] > 0
        assert second == (0, 0)
        counters = metrics.snapshot()["counters"]
        assert counters["sparw.target_memo.hits"] == first[1]
        # stop() added the memo's life totals, as a cluster run does.
        report = memo.report()
        for key in ("hits", "misses", "evictions"):
            assert counters.get(f"server.render_memo.{key}", 0) == report[key]
        assert metrics.gauge("server.render_memo.bytes").value == report[
            "bytes"] > 0

    def test_no_cache_server_attaches_no_memo(self, monkeypatch):
        spy = _WorkSpy(monkeypatch)

        async def scenario(server):
            runs = await _back_to_back(server, spy, "vr-lego", 3)
            return runs, server.render_memo, server._host_thread._engine

        runs, memo, engine = _with_server(scenario, use_cache=False)
        assert memo is None and engine.render_memo is None
        (first_result, first), (second_result, second) = runs
        assert first[0] > 0 and second == first
        assert ([f["digest"] for f in second_result["frames"]]
                == [f["digest"] for f in first_result["frames"]]
                == _solo_digests("vr-lego", 3))

    def test_byte_bound_holds_across_distinct_sessions(self, monkeypatch):
        bound = 200_000  # a few FAST outputs and target frames
        monkeypatch.setattr(cache_module, "RENDER_MEMO_BYTES", bound)
        sessions = [("vr-lego", 0), ("dolly-chair", 0), ("vr-headshake", 0),
                    ("walk-materials", 3), ("vr-lego", 5)]
        sizes = []

        async def scenario(server):
            results = []
            for name, seed in sessions:
                results.append(await _client(server.port, name, frames=3,
                                             seed=seed))
                sizes.append(server.render_memo.report()["bytes"])
            return results, server.render_memo.report()

        results, report = _with_server(scenario)
        assert report["evictions"] > 0
        assert max(sizes) <= bound
        for (name, seed), result in zip(sessions, results):
            assert result["final"]["type"] == "done"
            assert ([f["digest"] for f in result["frames"]]
                    == _solo_digests(name, 3, seed=seed))


class _CopiedRenderer(NeRFRenderer):
    """A new renderer over ``inner``'s field and sampler, so overriding
    its render calls leaves the shared cached renderer alone."""

    def __init__(self, inner: NeRFRenderer):
        super().__init__(inner.field, inner.sampler,
                         background=inner.background,
                         chunk_size=inner.chunk_size,
                         opacity_threshold=inner.opacity_threshold)


class _ExplodingRenderer(_CopiedRenderer):
    """Every render call raises."""

    def render_rays(self, *args, **kwargs):
        raise RuntimeError("injected renderer failure")

    render_ray_batch = render_rays


class TestEngineFailure:
    """A crash in a round reaches every client as ``error``, never a hang."""

    @pytest.fixture
    def exploding_sessions(self, monkeypatch):
        build = FrameServer._build_session

        def build_exploding(server, spec, session_id):
            session = build(server, spec, session_id)
            session.sparw.renderer = _ExplodingRenderer(session.sparw.renderer)
            return session

        monkeypatch.setattr(FrameServer, "_build_session", build_exploding)

    @staticmethod
    async def _timed_client(port: int) -> tuple:
        """``(final message, seconds from 'opened' or refusal to it)``."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            await read_message(reader)  # hello
            write_message(writer, {"type": "open", "workload": "vr-lego",
                                   "frames": 4})
            await writer.drain()
            message = await read_message(reader)
            start = asyncio.get_running_loop().time()
            while message is not None and message["type"] in ("opened",
                                                              "frame"):
                message = await read_message(reader)
            return message, asyncio.get_running_loop().time() - start
        finally:
            writer.close()
            await writer.wait_closed()

    def test_every_client_sees_error_within_a_second(self,
                                                     exploding_sessions):
        async def scenario(server):
            first = await asyncio.wait_for(asyncio.gather(*[
                self._timed_client(server.port) for _ in range(3)]), 30.0)
            late = await asyncio.wait_for(
                self._timed_client(server.port), 30.0)
            return [*first, late], server._host_thread.error

        replies, error = _with_server(scenario)
        assert error is not None and "injected renderer failure" in error
        for message, seconds in replies:
            assert message["type"] == "error"
            assert "injected renderer failure" in message["message"]
            assert seconds < 1.0


class _SlowRenderer(_CopiedRenderer):
    """Every engine render call sets ``rendering`` and then sleeps, so a
    round stays in flight."""

    def __init__(self, inner: NeRFRenderer, rendering: threading.Event):
        super().__init__(inner)
        self.rendering = rendering

    def render_ray_batch(self, *args, **kwargs):
        self.rendering.set()
        time.sleep(0.3)
        return super().render_ray_batch(*args, **kwargs)


def _session(session_id: str):
    spec = get_workload("vr-lego").with_overrides(frames=2)
    return spec.build_session(session_id, FAST)


class TestEngineHost:
    """Connections only record admissions and retirements; the host
    thread applies them between rounds, so the event loop never waits
    for a round in flight."""

    @pytest.fixture
    def mid_round(self):
        """An engine host whose one session ``slow`` is mid-round, and
        two more built sessions; the host is stopped afterwards."""
        rendering = threading.Event()
        slow = _session("slow")
        slow.sparw.renderer = _SlowRenderer(slow.sparw.renderer, rendering)
        others = [_session("other"), _session("gone")]
        loop = asyncio.new_event_loop()  # never run: posts just queue up
        host = _EngineHost(MultiSessionEngine([]), loop)
        host.start()
        host.admit(slow, asyncio.Queue())
        assert rendering.wait(timeout=30.0)
        try:
            yield host, others
        finally:
            host.stop()
            loop.close()

    def test_admit_and_retire_do_not_wait_for_the_round(self, mid_round):
        host, (other, gone) = mid_round
        waited = {}
        for name, request in (
                ("admit", lambda: host.admit(other, asyncio.Queue())),
                ("retire", lambda: host.retire("slow"))):
            start = time.perf_counter()
            request()
            waited[name] = time.perf_counter() - start
        # Admitted and retired before the host applied it: never renders.
        host.admit(gone, asyncio.Queue())
        host.retire("gone")
        host.stop()
        assert waited["admit"] < 0.05 and waited["retire"] < 0.05, waited
        assert [s.session_id for s in host._engine.sessions] == ["other"]
        assert gone.result.num_frames == 0

    def test_mid_round_retire_leaves_no_ready_entry(self, mid_round):
        host, _ = mid_round
        host.retire("slow")
        host.stop()  # joins once the round in flight is dispatched
        assert host._engine.batch.rounds >= 1
        assert host._ready_s == {}
