"""JSON-lines frame protocol: one session per TCP connection.

Every message is a single JSON object on its own ``\\n``-terminated
line (UTF-8), small enough to stay human-debuggable with ``nc``.  The
conversation is strictly one session per connection:

* server → client on connect: ``{"type": "hello", "schema": 1, ...}``
* client → server: ``{"type": "open", "workload": NAME,
  "frames": N?, "seed": S?}``
* server → client: ``{"type": "opened", "session": ID, ...}`` then one
  ``{"type": "frame", ...}`` per rendered frame, then
  ``{"type": "done", ...}``.
* client → server at any point: ``{"type": "close"}`` — the server
  stops streaming, retires the session, and answers
  ``{"type": "closed", "frames_delivered": n}``.
* server → client on any protocol error, and to every session when the
  server's engine fails: ``{"type": "error", "message": ...}`` followed
  by connection close.

Frames carry server-side wall-clock ``queue_s``/``render_s``
timestamps plus a content ``digest`` — the SHA-256 of the frame's
exact image+depth bytes — so clients can assert bit-identical parity
with solo rendering without shipping pixel arrays.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["PROTOCOL_SCHEMA", "MAX_MESSAGE_BYTES", "ProtocolError",
           "frame_digest", "read_message", "write_message"]

PROTOCOL_SCHEMA = 1

# One JSON line never carries pixel data, so anything near this bound is
# a framing bug (or a hostile peer), not a legitimate message.
MAX_MESSAGE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed or out-of-sequence protocol message."""


def frame_digest(frame) -> str:
    """SHA-256 over a frame's exact image+depth bytes.

    Matches the digest the parity tests compute for solo-rendered
    frames: equal digests mean bit-identical pixels and depth.
    """
    digest = hashlib.sha256()
    for plane in (frame.image, frame.depth):
        digest.update(np.ascontiguousarray(
            np.asarray(plane, dtype=np.float64)).tobytes())
    return digest.hexdigest()


def encode_message(message: dict) -> bytes:
    """One protocol message as its wire bytes (JSON line)."""
    return (json.dumps(message, separators=(",", ":"),
                       allow_nan=False) + "\n").encode()


def write_message(writer, message: dict) -> None:
    """Serialise ``message`` onto an asyncio ``StreamWriter``.

    The caller decides when to ``await writer.drain()``; frames are
    written eagerly so a slow reader exerts backpressure through drain.
    """
    writer.write(encode_message(message))


async def read_message(reader) -> dict | None:
    """Read one message from an asyncio ``StreamReader``.

    Returns ``None`` on clean EOF (peer closed the connection).  Raises
    :class:`ProtocolError` on oversized lines, non-JSON payloads, or
    payloads that are not an object with a string ``type``.
    """
    try:
        line = await reader.readline()
    except (ConnectionResetError, BrokenPipeError):
        return None
    except ValueError:
        # readline itself rejects lines beyond the stream's buffer
        # limit (64 KiB by default) before our own bound applies.
        raise ProtocolError(
            "message exceeds the line-length limit") from None
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from None
    if not isinstance(message, dict) or not isinstance(
            message.get("type"), str):
        raise ProtocolError(
            f"message must be an object with a string 'type', got "
            f"{message!r}")
    return message
