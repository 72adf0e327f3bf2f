"""``RemoteClient`` — the Policy interface over a socket.

The client half of the unified API: a :class:`RemoteClient` exposes exactly
the surface of :class:`repro.policy.clients.InProcessClient` (``decide`` /
``decide_many`` / ``reset`` / ``stats`` / ``close``), so environment-driven
evaluation code cannot tell which one it holds — the property the
row-identity tests pin.

It is deliberately synchronous (blocking socket + NDJSON lines): the
client side of an episode *is* sequential — the environment cannot step
until the decision arrives — so asyncio would add machinery without
concurrency.  Many concurrent episodes are many clients (threads,
processes, or async tasks each owning a client), which is exactly the load
shape the server's micro-batcher exploits.

``retry_after`` replies (backpressure, drain) are handled inside the
client: it backs off exponentially and resends, raising only after
``max_retries`` rounds.  ``timeout`` and ``error`` replies raise
:class:`ServeError` — an evaluation must never silently continue past a
failed decision.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.policy.codec import (
    STATUS_OK,
    STATUS_RETRY_AFTER,
    WIRE_VERSION,
    DecisionRequest,
    decode_reply,
    encode_request,
)
from repro.serve import protocol
from repro.sim.state import Observation


class ServeError(RuntimeError):
    """A protocol-level failure reported by the server."""


class RemoteClient:
    """Drive one served session as a ``Policy``.

    Parameters
    ----------
    endpoint:
        ``"unix:<path>"`` or ``"host:port"`` (see
        :func:`repro.serve.protocol.parse_endpoint`).
    model:
        Model descriptor for session admission: ``{"kind": "default"}``
        (server's preloaded checkpoint), ``{"kind": "checkpoint", "path": p}``
        or ``{"kind": "scheduler", "name": n, "spec": {...}, "seed": s}``.
    deadline_ms:
        Per-request deadline forwarded with every decision (``None`` defers
        to the server default).
    timeout:
        Socket-level receive timeout in seconds (a dead server must not hang
        an evaluation forever).
    max_retries:
        Rounds of backoff-and-resend on ``retry_after`` before giving up.
    """

    def __init__(
        self,
        endpoint: str,
        model: Optional[Dict[str, Any]] = None,
        mode: str = "greedy",
        deadline_ms: Optional[float] = None,
        timeout: float = 30.0,
        max_retries: int = 10,
    ) -> None:
        host, port, unix_path = protocol.parse_endpoint(endpoint)
        if unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(unix_path)
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._model = dict(model) if model is not None else {"kind": "default"}
        self._mode = mode
        self._deadline_ms = deadline_ms
        self._max_retries = max_retries
        self._seq = itertools.count(1)
        self._session: Optional[str] = None
        self._closed = False
        self._open_session()

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def for_checkpoint(cls, endpoint: str, path: str, **kwargs: Any) -> "RemoteClient":
        """A session decided by the agent checkpoint at (server-local) ``path``."""
        return cls(endpoint, model={"kind": "checkpoint", "path": path}, **kwargs)

    @classmethod
    def for_scheduler(
        cls,
        endpoint: str,
        name: str,
        spec: Optional[Any] = None,
        seed: Optional[int] = None,
        **kwargs: Any,
    ) -> "RemoteClient":
        """A session decided by the registered baseline scheduler ``name``."""
        model: Dict[str, Any] = {"kind": "scheduler", "name": name}
        if spec is not None:
            model["spec"] = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        if seed is not None:
            model["seed"] = seed
        return cls(endpoint, model=model, **kwargs)

    # -- wire helpers ---------------------------------------------------- #

    def _send(self, payload: Dict[str, Any]) -> None:
        # framed (and size-checked) before any byte reaches the socket
        self._file.write(protocol.encode_frame(payload))

    def _recv(self) -> Dict[str, Any]:
        line = self._file.readline(protocol.MAX_FRAME + 1)
        if not line:
            raise ServeError("server closed the connection")
        return protocol.decode_frame(line)

    def _rpc(self, payload: Dict[str, Any], expect: str) -> Dict[str, Any]:
        self._send(payload)
        self._file.flush()
        reply = self._recv()
        if reply["op"] == protocol.OP_ERROR:
            raise ServeError(reply.get("detail", "server error"))
        if reply["op"] != expect:
            raise ServeError(f"expected {expect!r} reply, got {reply['op']!r}")
        return reply

    def _open_session(self) -> None:
        reply = self._rpc(
            {
                "op": protocol.OP_OPEN,
                "model": self._model,
                "mode": self._mode,
                "wire": WIRE_VERSION,
            },
            protocol.OP_OPENED,
        )
        self._session = reply["session"]

    # -- Policy interface ------------------------------------------------ #

    def decide(
        self,
        obs: Observation,
        job_id: Optional[int] = None,
        arrived_at: Optional[float] = None,
    ) -> int:
        """One decision; ``job_id``/``arrived_at`` (optional) attribute the
        decision to a streaming job — forwarded as the request's ``job``
        block, which pre-streaming servers never receive (the block is
        omitted when unset) and current ones treat as annotation only."""
        jobs = None if job_id is None else [(job_id, arrived_at)]
        return self.decide_many([obs], jobs=jobs)[0]

    def decide_many(
        self,
        obs_list: Sequence[Observation],
        jobs: Optional[Sequence[Optional[tuple]]] = None,
    ) -> List[int]:
        """Pipelined decisions: send every request, then collect every reply.

        In-flight requests from this client may share server batches with
        other clients' — replies are matched by sequence number, so reply
        order is irrelevant.  ``retry_after`` replies are resent after an
        exponential backoff.  ``jobs`` (optional) carries one
        ``(job_id, arrived_at)`` pair — or ``None`` — per observation for
        streaming job attribution.
        """
        self._check_open()
        if not obs_list:
            return []
        if jobs is not None and len(jobs) != len(obs_list):
            raise ValueError(
                f"jobs must match obs_list length ({len(obs_list)}), "
                f"got {len(jobs)}"
            )
        actions: List[Optional[int]] = [None] * len(obs_list)
        pending = list(range(len(obs_list)))
        backoff = 0.002
        for _attempt in range(self._max_retries):
            seq_to_index: Dict[int, int] = {}
            for index in pending:
                seq = next(self._seq)
                seq_to_index[seq] = index
                job = jobs[index] if jobs is not None else None
                payload = encode_request(
                    DecisionRequest(
                        session=self._session,
                        seq=seq,
                        obs=obs_list[index],
                        deadline_ms=self._deadline_ms,
                        job_id=None if job is None else int(job[0]),
                        arrived_at=(
                            None
                            if job is None or job[1] is None
                            else float(job[1])
                        ),
                    )
                )
                payload["op"] = protocol.OP_DECIDE
                self._send(payload)
            self._file.flush()
            retry: List[int] = []
            for _ in range(len(seq_to_index)):
                frame = self._recv()
                if frame["op"] == protocol.OP_ERROR:
                    raise ServeError(frame.get("detail", "server error"))
                if frame["op"] != protocol.OP_DECISION:
                    raise ServeError(f"unexpected {frame['op']!r} mid-decision")
                reply = decode_reply(frame)
                index = seq_to_index.get(reply.seq)
                if index is None:
                    raise ServeError(f"reply for unknown seq {reply.seq}")
                if reply.status == STATUS_OK:
                    actions[index] = reply.action
                elif reply.status == STATUS_RETRY_AFTER:
                    retry.append(index)
                else:
                    raise ServeError(
                        f"decision {reply.seq} failed with {reply.status}: "
                        f"{reply.detail}"
                    )
            if not retry:
                return [int(a) for a in actions]  # type: ignore[arg-type]
            pending = sorted(retry)
            time.sleep(backoff)
            backoff = min(backoff * 2, 0.25)
        raise ServeError(
            f"server still pushing back after {self._max_retries} retries "
            "(queue saturated or draining)"
        )

    # -- client surface (mirrors InProcessClient) ------------------------ #

    def reset(self) -> None:
        """Episode boundary: reset the session's policy state server-side."""
        self._check_open()
        self._rpc(
            {"op": protocol.OP_RESET, "session": self._session},
            protocol.OP_RESET_OK,
        )

    def stats(self) -> Dict[str, Any]:
        """Server-side counters (queue depth, batch sizes, totals)."""
        self._check_open()
        reply = self._rpc({"op": protocol.OP_STATS}, protocol.OP_STATS_REPLY)
        return {k: v for k, v in reply.items() if k != "op"}

    def close(self) -> None:
        """Close the session and the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._rpc(
                {"op": protocol.OP_CLOSE_SESSION, "session": self._session},
                protocol.OP_CLOSED,
            )
        except (ServeError, OSError):
            pass  # the server frees disconnected sessions anyway
        finally:
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("client is closed")
