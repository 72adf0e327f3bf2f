"""NDJSON framing for the decision protocol.

One frame = one JSON object = one ``\\n``-terminated line (newline-delimited
JSON).  The format was chosen for debuggability — a session transcript is
readable with ``nc``/``socat`` and greppable as text.  Observation arrays do
not travel as JSON numbers: :mod:`repro.policy.codec` packs each observation
into one base64 little-endian buffer inside the frame, so the raw float64
bytes cross the wire and the row-identity of remote evaluation holds by
construction.

Frames carry an ``op`` field naming the verb; the closed vocabulary is the
``OP_*`` constants below.  See DESIGN.md §13 for the full exchange grammar.

Frames larger than :data:`MAX_FRAME` bytes are a protocol violation: the
server replies with an error frame and closes the connection (a bound is
required — ``readline`` on an unbounded stream is a memory DoS).  The
adjacency travels as CSR: a stored entry costs ~16 bytes on the wire (an
8-byte value and a 4-byte column, base64-inflated by 4/3), and a window
row ~5.3 bytes for its row pointer plus ~10.7 per feature column.  A
factorization window (~4 entries and ~20 feature columns per node) thus
costs ~280 bytes per node, so the limit fits windows of ~30 000 nodes,
far below typical process limits.  The client frames with
:func:`encode_frame` too, so an oversized request raises
:class:`FrameError` before any byte is sent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: hard per-frame byte cap (newline included)
MAX_FRAME = 8 * 1024 * 1024

# client → server verbs
OP_OPEN = "open"
OP_DECIDE = "decide"
OP_RESET = "reset"
OP_CLOSE_SESSION = "close_session"
OP_STATS = "stats"
OP_PING = "ping"

# server → client verbs
OP_OPENED = "opened"
OP_DECISION = "decision"
OP_RESET_OK = "reset_ok"
OP_CLOSED = "closed"
OP_STATS_REPLY = "stats_reply"
OP_PONG = "pong"
OP_ERROR = "error"


class FrameError(ValueError):
    """A line that is not a well-formed protocol frame."""


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Frame ``payload`` as one NDJSON line (raises on oversize)."""
    # compact separators keep observation frames ~30% smaller; ensure_ascii
    # off for the same reason (the payload is UTF-8 on the wire anyway)
    line = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    ) + b"\n"
    if len(line) > MAX_FRAME:
        raise FrameError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return line


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict (must be a JSON object)."""
    if len(line) > MAX_FRAME:
        raise FrameError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    if not isinstance(payload.get("op"), str):
        raise FrameError("frame is missing its 'op' field")
    return payload


def parse_endpoint(
    value: str,
) -> Tuple[Optional[str], Optional[int], Optional[str]]:
    """``"unix:<path>"`` or ``"host:port"`` → ``(host, port, unix_socket)``.

    The one endpoint grammar shared by the server CLI, the client and the
    ``evaluate --server`` plumbing.  Exactly one side of the tuple is
    populated: ``(None, None, path)`` for AF_UNIX, ``(host, port, None)``
    for TCP (an omitted host defaults to loopback).
    """
    if value.startswith("unix:"):
        path = value[len("unix:"):]
        if not path:
            raise ValueError("unix endpoint needs a path after 'unix:'")
        return None, None, path
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"endpoint must be 'unix:<path>' or 'host:port', got {value!r}"
        )
    return host or "127.0.0.1", int(port), None
