"""Fuzz layer for the JSON-lines frame protocol.

Seeded hypothesis ``binary()`` fuzz at two levels: ``read_message``
against arbitrary byte streams (every outcome is a parsed message,
clean EOF, or ``ProtocolError`` — never another exception), and the
live asyncio handler against garbage openings (the server always
answers with a clean ``error`` reply or EOF, never dies — the next
well-formed connection still gets served).
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig
from repro.server import FrameServer, read_message
from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    encode_message,
)


def feed(payload: bytes, limit: int = 2 ** 16) -> asyncio.StreamReader:
    """A StreamReader pre-loaded with ``payload`` and then EOF."""
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


def read_all(payload: bytes, limit: int = 2 ** 16) -> list:
    """Drain ``payload`` through read_message; returns messages and
    the terminating ``None``/``ProtocolError``."""
    async def drain():
        reader = feed(payload, limit=limit)
        out = []
        while True:
            try:
                message = await read_message(reader)
            except ProtocolError as exc:
                out.append(exc)
                return out
            out.append(message)
            if message is None:
                return out

    return asyncio.run(drain())


class TestReadMessageFuzz:
    @given(payload=st.binary(max_size=512))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_escape_the_contract(self, payload):
        outcomes = read_all(payload)
        # Every outcome is a dict message, a clean EOF, or a
        # ProtocolError terminating the stream — nothing else.
        for outcome in outcomes[:-1]:
            assert isinstance(outcome, dict)
        assert outcomes[-1] is None or isinstance(
            outcomes[-1], (ProtocolError, dict))

    @given(payload=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_non_json_lines_raise_protocol_error(self, payload):
        line = payload.replace(b"\n", b" ") + b"\n"
        try:
            json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            outcomes = read_all(line)
            assert isinstance(outcomes[-1], ProtocolError)

    @given(message=st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.booleans()),
        max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_objects_with_string_type_survive(self, message):
        message["type"] = "probe"
        outcomes = read_all(encode_message(message))
        assert outcomes[0] == message
        assert outcomes[-1] is None

    @given(chunks=st.lists(st.binary(min_size=1, max_size=40),
                           min_size=2, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_chunking_matches_single_feed(self, chunks):
        joined = b"".join(chunks)

        async def drain_chunked():
            reader = asyncio.StreamReader(limit=2 ** 16)
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            out = []
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    out.append(repr(exc))
                    return out
                out.append(message)
                if message is None:
                    return out

        chunked = asyncio.run(drain_chunked())
        single = [outcome if not isinstance(outcome, ProtocolError)
                  else repr(outcome) for outcome in read_all(joined)]
        assert chunked == single  # framing is independent of chunking


class TestReadMessageEdges:
    def test_truncated_line_without_newline_is_eof_or_error(self):
        # A partial line at EOF decodes if it happens to be JSON; a
        # truncated object raises ProtocolError.
        outcomes = read_all(b'{"type": "open", "work')
        assert isinstance(outcomes[-1], ProtocolError)

    def test_oversized_line_raises_protocol_error(self):
        blob = b'{"type":"' + b"x" * (2 ** 16) + b'"}\n'
        outcomes = read_all(blob)
        assert isinstance(outcomes[-1], ProtocolError)
        assert "limit" in str(outcomes[-1])

    def test_max_message_bytes_bound_applies(self):
        # With a generous reader limit, our own bound still rejects.
        blob = b'{"type":"' + b"x" * MAX_MESSAGE_BYTES + b'"}\n'
        outcomes = read_all(blob, limit=2 * MAX_MESSAGE_BYTES + 1024)
        assert isinstance(outcomes[-1], ProtocolError)

    def test_non_utf8_bytes_raise_protocol_error(self):
        outcomes = read_all(b"\xff\xfe\x00garbage\n")
        assert isinstance(outcomes[-1], ProtocolError)

    def test_non_object_json_raises_protocol_error(self):
        for line in (b"[1,2,3]\n", b'"hello"\n', b"42\n",
                     b'{"type": 7}\n', b"{}\n"):
            outcomes = read_all(line)
            assert isinstance(outcomes[-1], ProtocolError), line


# Deterministic corpus for the live-handler fuzz: hypothesis does not
# drive real socket servers here (startup is too expensive per example),
# so a seeded sample of openings covers the same classes — random
# bytes, truncation, oversize, non-UTF-8, wrong shapes.
GARBAGE_OPENINGS = [
    b"\x00\x01\x02\x03\x04\n",
    b"\xff\xfe\xfd not utf8 \xba\xad\n",
    b"not json at all\n",
    b"[1, 2, 3]\n",
    b'"just a string"\n',
    b'{"no_type": true}\n',
    b'{"type": 42}\n',
    b'{"type": "open"}\n',            # well-formed but no workload
    b'{"type": "open", "workload": "no-such-workload"}\n',
    b'{"type": "frame"}\n',           # out-of-sequence type
    b'{"type": "open", "work',        # truncated, no newline
    b'{"a":"' + b"x" * (2 ** 16) + b'"}\n',  # oversized line
]


async def poke(port: int, payload: bytes) -> dict | None:
    """Send raw bytes to the server; return its final reply (or None)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await read_message(reader)  # hello
        writer.write(payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return None
        writer.write_eof()
        try:
            return await asyncio.wait_for(read_message(reader), 10.0)
        except (ProtocolError, ConnectionResetError, BrokenPipeError):
            return None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestHandlerNeverDies:
    def test_garbage_openings_get_clean_errors_then_service_resumes(self):
        async def scenario():
            server = FrameServer(FAST, RunConfig(mode="realserve"))
            await server.start()
            try:
                for payload in GARBAGE_OPENINGS:
                    reply = await poke(server.port, payload)
                    # Either a clean protocol "error" reply or a clean
                    # close — the handler never propagates an exception.
                    if reply is not None:
                        assert reply["type"] == "error", payload
                        assert isinstance(reply["message"], str)
                # The server is still alive: a real session works.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                try:
                    await read_message(reader)
                    writer.write(encode_message(
                        {"type": "open", "workload": "vr-lego",
                         "frames": 2}))
                    await writer.drain()
                    opened = await read_message(reader)
                    assert opened["type"] == "opened"
                    kinds = []
                    while True:
                        message = await read_message(reader)
                        if message is None:
                            break
                        kinds.append(message["type"])
                        if message["type"] == "done":
                            break
                    assert kinds.count("frame") == 2
                    assert kinds[-1] == "done"
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
            finally:
                await server.stop()

        asyncio.run(scenario())
