"""The asyncio decision server: scheduling-as-a-service.

One :class:`DecisionServer` owns one or more loaded policies and answers
decision requests for many concurrent client episodes over the NDJSON
protocol (:mod:`repro.serve.protocol`), on localhost TCP or an AF_UNIX
socket.

Cross-episode micro-batching
----------------------------
Every ``decide`` request lands in one bounded queue.  A single batcher task
drains it in flushes, **drain-then-flush**: after the first request of a
flush it yields to the event loop, so that connection handlers parse the
frames already sitting in the socket buffers, and keeps collecting only while
each such pass delivers new requests.  The flush goes out when a pass brings
nothing new (the loop went quiet), at ``max_batch`` requests, or once
``max_wait_us`` has passed since the flush took its first request — the
longest one flush keeps collecting.  A lone request is thus answered a few
loop passes after it arrives instead of after a fixed timer, while under
load everything that arrived during the previous batch's compute is queued
when it finishes, so batches stay full.  ``max_batch=1`` answers one request
per flush; ``max_wait_us=0`` flushes what is queued without collecting.
Each flush is counted by its reason (``flush_full_total``,
``flush_idle_total``, ``flush_capped_total``).

Requests in one flush are grouped by *batching group* (sessions sharing a
loaded checkpoint share a group) and each group is answered with **one**
``decide_many`` — for agent policies a single block-diagonal GCN forward
instead of N single forwards.  Batched
greedy answers are action-identical to the single path (pinned by
``tests/rl/test_forward_batch.py``), so batching is invisible in results and
only visible in throughput.

Robustness semantics
--------------------
* **admission** — sessions are opened against a model descriptor; sessions
  naming byte-identical checkpoints share one loaded model (registry keyed
  by content hash).
* **backpressure** — when the queue holds ``queue_cap`` requests, further
  ``decide`` requests are answered immediately with ``retry_after`` (the
  client backs off and resends; nothing is silently dropped).
* **deadlines** — each request carries an answer deadline (its own
  ``deadline_ms`` capped by the server default); requests that expire while
  queued are answered with ``timeout`` instead of a stale decision.
* **drain** — SIGTERM stops accepting connections, answers everything
  already queued, then closes remaining connections, waits for their
  handlers to finish, and exits cleanly.
* **isolation** — a malformed or oversized frame kills only its connection;
  a disconnect frees the connection's sessions; a policy error (e.g. an
  illegal scheduler choice) fails only the requests that caused it.

Metrics flow through the PR 3 obs layer (``serve/queue_depth``,
``serve/batch_size``, ``serve/decision_latency`` …) and are also available
in-protocol through the ``stats`` verb, which works even when the metrics
registry is disabled.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

from repro import obs
from repro.obs import clock
from repro.policy.api import AgentPolicy, checkpoint_fingerprint
from repro.policy.codec import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY_AFTER,
    STATUS_TIMEOUT,
    WIRE_VERSION,
    CodecError,
    DecisionReply,
    DecisionRequest,
    decode_request,
    encode_reply,
)
from repro.schedulers import registry
from repro.serve import protocol
from repro.spec import ExperimentSpec, ServeSpec


_YIELDS_PER_PASS = 2
"""Event-loop yields per collection pass (see ``DecisionServer._collect``)."""

_DRAIN_GRACE_S = 1.0
"""How long a drain lets closed connections flush their pending replies
before aborting them: a peer that stopped reading must not hold the exit."""


class _Session:
    """One admitted client episode stream."""

    __slots__ = ("sid", "policy", "group", "decisions")

    def __init__(self, sid: str, policy: Any, group: str) -> None:
        self.sid = sid
        self.policy = policy
        self.group = group
        self.decisions = 0


class _Pending:
    """One queued decision request awaiting a flush."""

    __slots__ = ("request", "session", "writer", "deadline_at")

    def __init__(
        self,
        request: DecisionRequest,
        session: _Session,
        writer: asyncio.StreamWriter,
        deadline_at: float,
    ) -> None:
        self.request = request
        self.session = session
        self.writer = writer
        self.deadline_at = deadline_at


class DecisionServer:
    """Serve scheduling decisions to concurrent episodes with micro-batching.

    Parameters
    ----------
    spec:
        The :class:`~repro.spec.ServeSpec` (endpoint + batching/backpressure
        knobs).
    checkpoint:
        Optional default agent checkpoint, preloaded at startup; sessions may
        open it as ``{"kind": "default"}`` without naming a path.
    mode:
        Decision mode of agent policies (``"greedy"``/``"sample"``).
    """

    def __init__(
        self,
        spec: ServeSpec,
        checkpoint: Optional[str] = None,
        mode: str = "greedy",
    ) -> None:
        self.spec = spec
        self.mode = mode
        self._default_checkpoint = checkpoint
        self._default_group: Optional[str] = None
        self._models: Dict[str, Any] = {}
        self._sessions: Dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        self._queue: Deque[_Pending] = deque()
        # live connection-handler tasks and their writers; an entry leaves
        # only when its handler has finished, ``wait_closed`` included
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[asyncio.Task] = None
        self._queue_event: Optional[asyncio.Event] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        # protocol-level counters: always on (the stats verb must answer even
        # when the obs metrics registry is disabled)
        self.counters: Dict[str, float] = {
            "decisions_total": 0.0,
            "batches_total": 0.0,
            "batched_requests_total": 0.0,
            "retry_after_total": 0.0,
            "timeout_total": 0.0,
            "error_total": 0.0,
            "sessions_opened_total": 0.0,
            # why each batch flushed: at max_batch, when the event loop went
            # quiet, or when max_wait_us capped the collection
            "flush_full_total": 0.0,
            "flush_idle_total": 0.0,
            "flush_capped_total": 0.0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def endpoint(self) -> str:
        """The bound endpoint (``unix:<path>`` or ``host:port``) once started."""
        if self.spec.unix_socket is not None:
            return f"unix:{self.spec.unix_socket}"
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"{host}:{port}"

    async def start(self) -> None:
        """Bind the endpoint and start the batcher (does not block)."""
        self._queue_event = asyncio.Event()
        self._drain_requested = asyncio.Event()
        if self._default_checkpoint is not None:
            self._default_group = self._load_checkpoint(self._default_checkpoint)
        limit = protocol.MAX_FRAME + 1024
        if self.spec.unix_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.spec.unix_socket, limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.spec.host, self.spec.port, limit=limit
            )
        self._batcher = asyncio.create_task(self._batch_loop())

    def request_drain(self) -> None:
        """Begin a graceful drain (the SIGTERM handler; idempotent)."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        if self._drain_requested is not None:
            self._drain_requested.set()
        if self._queue_event is not None:
            self._queue_event.set()  # wake the batcher so it can notice

    async def serve_until_drained(self, install_signals: bool = True) -> None:
        """Run until a drain is requested, then finish queued work and stop."""
        assert self._drain_requested is not None, "call start() first"
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support (or nested loop)
        await self._drain_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        """Drain the queue, close every connection, release the endpoint."""
        self.request_drain()
        if self._batcher is not None:
            await self._batcher  # answers everything already queued
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            # each handler sees EOF and runs its ``finally`` now, instead of
            # being cancelled mid-``readline`` when the event loop shuts down
            _, stuck = await asyncio.wait(
                list(self._connections), timeout=_DRAIN_GRACE_S
            )
            for handler in stuck:
                # drops the unflushed replies of a peer that stopped reading
                self._connections[handler].transport.abort()
            if stuck:
                await asyncio.wait(stuck)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer
        handler.add_done_callback(self._connections.pop)
        owned: Set[str] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline over the frame limit: protocol violation
                    self._send(
                        writer,
                        {
                            "op": protocol.OP_ERROR,
                            "detail": f"frame exceeds {protocol.MAX_FRAME} bytes",
                        },
                    )
                    break
                if not line:
                    break  # peer closed
                try:
                    frame = protocol.decode_frame(line)
                except protocol.FrameError as exc:
                    self._send(
                        writer, {"op": protocol.OP_ERROR, "detail": str(exc)}
                    )
                    break  # framing is broken — resynchronising is hopeless
                if not await self._dispatch(frame, writer, owned):
                    break
        except ConnectionError:
            pass  # peer vanished mid-frame; cleanup below frees its sessions
        finally:
            for sid in owned:
                self._sessions.pop(sid, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        owned: Set[str],
    ) -> bool:
        """Handle one frame; returns False when the connection must close."""
        op = frame["op"]
        if op == protocol.OP_PING:
            self._send(writer, {"op": protocol.OP_PONG})
        elif op == protocol.OP_STATS:
            self._send(writer, self._stats_frame())
        elif op == protocol.OP_OPEN:
            self._send(writer, self._handle_open(frame, owned))
        elif op == protocol.OP_RESET:
            self._send(writer, self._handle_reset(frame))
        elif op == protocol.OP_CLOSE_SESSION:
            sid = frame.get("session")
            owned.discard(sid)
            self._sessions.pop(sid, None)
            self._send(writer, {"op": protocol.OP_CLOSED, "session": sid})
        elif op == protocol.OP_DECIDE:
            self._handle_decide(frame, writer)
        else:
            self._send(
                writer,
                {"op": protocol.OP_ERROR, "detail": f"unknown op {op!r}"},
            )
        return True

    # ------------------------------------------------------------------ #
    # session admission
    # ------------------------------------------------------------------ #

    def _load_checkpoint(self, path: str) -> str:
        """Load (or reuse) the agent at ``path``; returns its group key."""
        group = "ckpt:" + checkpoint_fingerprint(path)
        if group not in self._models:
            from repro.rl.transfer import load_agent  # heavyweight: lazy

            self._models[group] = AgentPolicy(load_agent(path), mode=self.mode)
        return group

    def _handle_open(
        self, frame: Dict[str, Any], owned: Set[str]
    ) -> Dict[str, Any]:
        if self._draining:
            return {"op": protocol.OP_ERROR, "detail": "server is draining"}
        wire = frame.get("wire", WIRE_VERSION)  # absent: the current version
        if wire != WIRE_VERSION:
            return {
                "op": protocol.OP_ERROR,
                "detail": f"unsupported wire version {wire!r}; this server "
                f"speaks wire version {WIRE_VERSION}",
            }
        model = frame.get("model") or {"kind": "default"}
        if not isinstance(model, dict):
            return {
                "op": protocol.OP_ERROR,
                "detail": "'model' must be an object",
            }
        kind = model.get("kind", "default")
        try:
            if kind == "default":
                if self._default_group is None:
                    raise ValueError(
                        "no default checkpoint loaded; open with an explicit "
                        "model descriptor or start the server with --checkpoint"
                    )
                group = self._default_group
                policy = self._models[group]
            elif kind == "checkpoint":
                group = self._load_checkpoint(str(model["path"]))
                policy = self._models[group]
            elif kind == "scheduler":
                name = str(model["name"])
                spec_payload = model.get("spec")
                exp_spec = (
                    ExperimentSpec.from_dict(spec_payload)
                    if spec_payload is not None
                    else None
                )
                policy = registry.get_policy(
                    name, spec=exp_spec, rng=model.get("seed")
                )
                # scheduler adapters may be stateful (static-replay cursors),
                # so each session gets its own instance and batching group
                group = f"sched:{name}:{next(self._session_ids)}"
            else:
                raise ValueError(f"unknown model kind {kind!r}")
        except (OSError, KeyError, ValueError) as exc:
            self.counters["error_total"] += 1
            return {"op": protocol.OP_ERROR, "detail": str(exc)}
        sid = f"s{next(self._session_ids)}"
        session = _Session(sid, policy, group)
        self._sessions[sid] = session
        owned.add(sid)
        self.counters["sessions_opened_total"] += 1
        if obs.METRICS.enabled:
            obs.METRICS.counter("serve/sessions_opened").inc()
        return {
            "op": protocol.OP_OPENED,
            "session": sid,
            "group": group,
            "wire": WIRE_VERSION,
        }

    def _handle_reset(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session = self._sessions.get(frame.get("session"))
        if session is None:
            return {
                "op": protocol.OP_ERROR,
                "detail": f"unknown session {frame.get('session')!r}",
            }
        reset = getattr(session.policy, "reset", None)
        if callable(reset) and session.group.startswith("sched:"):
            # only session-private policies carry per-episode state; shared
            # agent models are stateless and must not be reset under peers
            reset()
        return {"op": protocol.OP_RESET_OK, "session": session.sid}

    # ------------------------------------------------------------------ #
    # decide: enqueue + micro-batched flush
    # ------------------------------------------------------------------ #

    def _handle_decide(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = decode_request(frame)
        except CodecError as exc:
            self.counters["error_total"] += 1
            seq = frame.get("seq")
            self._send_reply(
                writer,
                DecisionReply(
                    session=str(frame.get("session") or "?"),
                    # echo an integer seq (0 included); anything else as -1
                    seq=seq if type(seq) is int else -1,
                    status=STATUS_ERROR,
                    detail=str(exc),
                ),
            )
            return
        session = self._sessions.get(request.session)
        if session is None:
            self.counters["error_total"] += 1
            self._send_reply(
                writer,
                DecisionReply(
                    session=request.session,
                    seq=request.seq,
                    status=STATUS_ERROR,
                    detail=f"unknown session {request.session!r}",
                ),
            )
            return
        if self._draining:
            self.counters["retry_after_total"] += 1
            self._send_reply(
                writer,
                DecisionReply(
                    session=request.session,
                    seq=request.seq,
                    status=STATUS_RETRY_AFTER,
                    detail="server is draining",
                ),
            )
            return
        if len(self._queue) >= self.spec.queue_cap:
            self.counters["retry_after_total"] += 1
            if obs.METRICS.enabled:
                obs.METRICS.counter("serve/retry_after").inc()
            self._send_reply(
                writer,
                DecisionReply(
                    session=request.session,
                    seq=request.seq,
                    status=STATUS_RETRY_AFTER,
                    detail=f"queue at capacity ({self.spec.queue_cap})",
                ),
            )
            return
        deadline_ms = self.spec.deadline_ms
        if request.deadline_ms is not None:
            deadline_ms = min(deadline_ms, float(request.deadline_ms))
        self._queue.append(
            _Pending(request, session, writer, clock.now() + deadline_ms / 1e3)
        )
        if obs.METRICS.enabled:
            obs.METRICS.gauge("serve/queue_depth").set(len(self._queue))
        assert self._queue_event is not None
        self._queue_event.set()

    async def _batch_loop(self) -> None:
        assert self._queue_event is not None
        spec = self.spec
        while True:
            if not self._queue:
                if self._draining:
                    return  # drained: every queued request was answered
                self._queue_event.clear()
                # re-check after clear to close the set-before-clear race
                if self._queue or self._draining:
                    continue
                await self._queue_event.wait()
                continue
            reason = await self._collect()
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), spec.max_batch))
            ]
            self.counters[f"flush_{reason}_total"] += 1
            if obs.METRICS.enabled:
                obs.METRICS.counter(f"serve/flush_{reason}").inc()
            self._flush(batch)
            if obs.METRICS.enabled:
                obs.METRICS.gauge("serve/queue_depth").set(len(self._queue))
            # yield so reply writes and new arrivals interleave fairly
            await asyncio.sleep(0)

    async def _collect(self) -> str:
        """Let the queue fill for one flush; returns why collection stopped.

        ``"full"`` at ``max_batch`` queued requests, ``"capped"`` once
        ``max_wait_us`` has passed since collection began, ``"idle"`` when a
        pass over the event loop queued nothing new.  Each pass yields
        :data:`_YIELDS_PER_PASS` times: one loop iteration turns readable
        sockets into buffered stream data, the next runs the connection
        handlers that parse it into queued requests.
        """
        spec = self.spec
        loop = asyncio.get_running_loop()
        cap_at = loop.time() + spec.max_wait_us / 1e6
        queued = len(self._queue)
        while queued < spec.max_batch:
            if loop.time() >= cap_at:
                return "capped"
            for _ in range(_YIELDS_PER_PASS):
                await asyncio.sleep(0)
            if len(self._queue) <= queued:
                return "idle"
            queued = len(self._queue)
        return "full"

    def _flush(self, batch: List[_Pending]) -> None:
        """Answer one collected batch: expire, group, decide, reply."""
        now = clock.now()
        live: List[_Pending] = []
        for pending in batch:
            if now > pending.deadline_at:
                self.counters["timeout_total"] += 1
                if obs.METRICS.enabled:
                    obs.METRICS.counter("serve/timeouts").inc()
                self._send_reply(
                    pending.writer,
                    DecisionReply(
                        session=pending.request.session,
                        seq=pending.request.seq,
                        status=STATUS_TIMEOUT,
                        detail="deadline expired before the batch flushed",
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return
        groups: Dict[str, List[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.session.group, []).append(pending)
        self.counters["batches_total"] += 1
        self.counters["batched_requests_total"] += len(live)
        if obs.METRICS.enabled:
            obs.METRICS.series("serve/batch_size").append(len(live))
        timer = (
            obs.METRICS.timer("serve/decision_latency")
            if obs.METRICS.enabled
            else None
        )
        started = clock.now()
        for members in groups.values():
            self._decide_group(members)
        if timer is not None:
            timer.record(clock.now() - started)

    def _decide_group(self, members: List[_Pending]) -> None:
        """One ``decide_many`` per batching group, with per-request fallback."""
        policy = members[0].session.policy
        try:
            actions = policy.decide_many([m.request.obs for m in members])
        except Exception:
            # isolate the failing request(s): answer one by one
            actions = None
        if actions is not None and len(actions) == len(members):
            for pending, action in zip(members, actions):
                pending.session.decisions += 1
                self.counters["decisions_total"] += 1
                self._send_reply(
                    pending.writer,
                    DecisionReply(
                        session=pending.request.session,
                        seq=pending.request.seq,
                        status=STATUS_OK,
                        action=int(action),
                    ),
                )
            return
        for pending in members:
            try:
                action = int(policy.decide(pending.request.obs))
            except Exception as exc:  # noqa: BLE001 — reply, don't crash serve
                self.counters["error_total"] += 1
                self._send_reply(
                    pending.writer,
                    DecisionReply(
                        session=pending.request.session,
                        seq=pending.request.seq,
                        status=STATUS_ERROR,
                        detail=f"{type(exc).__name__}: {exc}",
                    ),
                )
                continue
            pending.session.decisions += 1
            self.counters["decisions_total"] += 1
            self._send_reply(
                pending.writer,
                DecisionReply(
                    session=pending.request.session,
                    seq=pending.request.seq,
                    status=STATUS_OK,
                    action=action,
                ),
            )

    # ------------------------------------------------------------------ #
    # replies / stats
    # ------------------------------------------------------------------ #

    def _send(self, writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        if writer.is_closing():
            return
        try:
            writer.write(protocol.encode_frame(payload))
        except (ConnectionError, RuntimeError):
            pass  # peer is gone; its sessions are freed by the handler

    def _send_reply(
        self, writer: asyncio.StreamWriter, reply: DecisionReply
    ) -> None:
        payload = encode_reply(reply)
        payload["op"] = protocol.OP_DECISION
        self._send(writer, payload)

    def _stats_frame(self) -> Dict[str, Any]:
        batches = self.counters["batches_total"]
        return {
            "op": protocol.OP_STATS_REPLY,
            "sessions": len(self._sessions),
            "models": len(self._models),
            "queue_depth": len(self._queue),
            "draining": self._draining,
            "mean_batch_size": (
                self.counters["batched_requests_total"] / batches
                if batches
                else 0.0
            ),
            **self.counters,
        }


async def _amain(server: DecisionServer) -> None:
    await server.start()
    print(f"serving on {server.endpoint}", flush=True)
    await server.serve_until_drained()


def serve_main(
    spec: ServeSpec,
    checkpoint: Optional[str] = None,
    mode: str = "greedy",
) -> int:
    """Blocking entry point of ``python -m repro serve``."""
    server = DecisionServer(spec, checkpoint=checkpoint, mode=mode)
    asyncio.run(_amain(server))
    print(
        "drained: {decisions:.0f} decisions in {batches:.0f} batches".format(
            decisions=server.counters["decisions_total"],
            batches=server.counters["batches_total"],
        ),
        flush=True,
    )
    return 0
