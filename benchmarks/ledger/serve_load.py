"""The serving workloads: a decision server under a generated load.

One repeat starts ``python -m repro serve`` (or, on a traced repeat, the
span-recording launcher in ``serve_traced.py``), opens its sessions, drives
the load and shuts the server down: sessions are closed before SIGTERM, so
the drain never meets an idle open connection.

Requests cycle through the decision points of one recorded Cholesky T=6
episode.  Every distinct payload is also decided in-process by an
``AgentPolicy`` loaded from the same checkpoint; every served action must
equal it.  The load comes from this one process, with at most two threads
and two connections:

* ``serve-light`` is an open loop: one connection, Poisson arrivals at
  100 Hz.  Each request is timed from the instant it was due, so a stall
  also charges the requests queued behind it, and the generator reports how
  late it sent.
* ``serve-heavy`` is a closed loop: two connections, each keeping 16
  requests in flight; a request is timed from its send.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from benchmarks.ledger.harness import child_env
from benchmarks.ledger.worker import AGENT_SEED, Repeat

OPEN_LOOP_HZ = 100.0
IN_FLIGHT = 16
SERVER_WAIT_S = 60.0


class _Conn:
    """One blocking client connection with a framed reader."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SERVER_WAIT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.session = ""

    def send(self, frame: Dict[str, Any]) -> None:
        self.sock.sendall(json.dumps(frame).encode() + b"\n")

    def recv(self) -> Dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def rpc(self, frame: Dict[str, Any], expect: str) -> Dict[str, Any]:
        self.send(frame)
        reply = self.recv()
        if reply.get("op") != expect:
            raise RuntimeError(f"expected {expect!r}, got {reply}")
        return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _record_episode(rep: Repeat, ckpt: str) -> Tuple[List[bytes], List[int]]:
    """Save the agent, record one greedy episode, and return the distinct
    observation payloads with the in-process action for each."""
    from repro.policy import codec
    from repro.policy.api import AgentPolicy, agent_policy_from_checkpoint
    from repro.rl.transfer import save_agent
    from repro.rl.trainer import default_agent
    from repro.serve import protocol
    from repro.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "workload": {"name": "single", "kernel": "cholesky", "tiles": 6, "sigma": 0.0},
        "cpus": 2, "gpus": 2, "seed": rep.cfg["seed"],
    })
    env = spec.make_env()
    agent = default_agent(env, rng=AGENT_SEED)
    save_agent(agent, ckpt)
    policy = AgentPolicy(agent)
    observations = []
    obs, done = env.reset().obs, False
    while not done:
        observations.append(obs)
        result = env.step(policy.decide(obs))
        obs, done = result.obs, result.done

    reference = agent_policy_from_checkpoint(ckpt)
    bodies: List[bytes] = []
    expected: List[int] = []
    encode_s = 0.0
    frame_bytes = 0
    for obs in observations:
        # what a client pays per request: codec plus framing
        start = time.perf_counter()
        frame = protocol.encode_frame({
            "op": protocol.OP_DECIDE,
            **codec.encode_request(codec.DecisionRequest(session="s1", seq=1, obs=obs)),
        })
        encode_s += time.perf_counter() - start
        frame_bytes += len(frame)
        body = json.dumps(codec.encode_observation(obs), separators=(",", ":")).encode()
        bodies.append(body)
        expected.append(reference.decide(codec.decode_observation(json.loads(body))))
    rep.layers["policy.codec.encode_us"] = encode_s / len(observations) * 1e6
    rep.layers["policy.codec.frame_bytes"] = frame_bytes / len(observations)
    return bodies, expected


class _Load:
    """Request bookkeeping shared by the sender and receiver sides."""

    def __init__(self, bodies: List[bytes], expected: List[int], total: int) -> None:
        self.bodies = bodies
        self.expected = expected
        self.total = total
        self.due: Dict[int, float] = {}
        self.statuses: Dict[str, int] = {}
        self.latencies_ms: List[float] = []
        self.wrong: List[int] = []
        self.late_max_s = 0.0
        self.first_send = float("inf")
        self.last_reply = 0.0
        self.lock = threading.Lock()

    def frame(self, conn: _Conn, seq: int) -> bytes:
        body = self.bodies[seq % len(self.bodies)]
        return (b'{"op":"decide","session":"' + conn.session.encode()
                + b'","seq":' + str(seq).encode() + b',"obs":' + body + b"}\n")

    def receive(self, conn: _Conn) -> None:
        reply = conn.recv()
        now = time.perf_counter()
        if reply.get("op") != "decision":
            raise RuntimeError(f"unexpected frame mid-load: {reply}")
        seq, status = int(reply["seq"]), str(reply["status"])
        with self.lock:
            self.latencies_ms.append((now - self.due.pop(seq)) * 1e3)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            self.last_reply = max(self.last_reply, now)
            if status == "ok" and reply["action"] != self.expected[seq % len(self.expected)]:
                self.wrong.append(seq)


def _open_loop(conn: _Conn, load: _Load, seed: int) -> None:
    import numpy as np

    gaps = np.random.default_rng([seed, 100]).exponential(1.0, load.total)
    # Poisson arrivals conditioned on the run's length: the schedule always
    # spans total / rate seconds, so the offered rate does not vary by seed
    gaps *= load.total / OPEN_LOOP_HZ / gaps.sum()
    start = time.perf_counter() + 0.01
    due = start + np.cumsum(gaps)
    for seq in range(load.total):
        load.due[seq] = float(due[seq])

    def send_all() -> None:
        for seq in range(load.total):
            due_at = float(due[seq])
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            load.late_max_s = max(load.late_max_s, time.perf_counter() - due_at)
            conn.sock.sendall(load.frame(conn, seq))

    load.first_send = start

    sender = threading.Thread(target=send_all)
    sender.start()
    try:
        for _ in range(load.total):
            load.receive(conn)
    finally:
        sender.join()


def _closed_loop(conns: List[_Conn], load: _Load) -> None:
    per_conn = load.total // len(conns)
    seq_base = [i * per_conn for i in range(len(conns))]

    def drive(index: int) -> None:
        conn, base = conns[index], seq_base[index]
        sent = 0

        def send_next() -> None:
            nonlocal sent
            seq = base + sent
            with load.lock:
                load.due[seq] = time.perf_counter()
            conn.sock.sendall(load.frame(conn, seq))
            sent += 1

        for _ in range(min(IN_FLIGHT, per_conn)):
            send_next()
        for _ in range(per_conn):
            load.receive(conn)
            if sent < per_conn:
                send_next()

    load.first_send = time.perf_counter()
    helper = threading.Thread(target=drive, args=(1,))
    helper.start()
    try:
        drive(0)
    finally:
        helper.join()


def _spawn_server(rep: Repeat, ckpt: str, layers_path: str) -> subprocess.Popen:
    if rep.cfg["traced"]:
        cmd = [sys.executable, "-m", "benchmarks.ledger.serve_traced", layers_path,
               rep.cfg["trace_path"]]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += ["serve", "--checkpoint", ckpt, "--host", "127.0.0.1", "--port", "0"]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=rep.cfg["root"],
        env=child_env(),
    )


def _stop_server(rep: Repeat, proc: subprocess.Popen, conns: List[_Conn]) -> None:
    """Close every session and connection, then SIGTERM the server and wait
    for its drain.  A connection still open at SIGTERM makes the drain print
    a ``CancelledError`` traceback, so each one is shut down and read to the
    server's EOF first."""
    for conn in conns:
        conn.rpc({"op": "close_session", "session": conn.session}, "closed")
        conn.sock.shutdown(socket.SHUT_WR)
        rep.check(conn.reader.read() == b"", "server sent data after the session closed")
        conn.close()
    time.sleep(0.05)  # the handler's coroutine ends just after its EOF
    proc.send_signal(signal.SIGTERM)
    try:
        _out, err = proc.communicate(timeout=SERVER_WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rep.check(False, "server did not drain within the timeout after SIGTERM")
        return
    rep.check(proc.returncode == 0, f"server exited with code {proc.returncode}")
    rep.check(b"Traceback" not in err,
              "server printed a traceback: " + err.decode(errors="replace")[-400:])


def run_serve(rep: Repeat) -> None:
    work_dir = os.path.join(rep.cfg["root"], ".ledger", "serve")
    os.makedirs(work_dir, exist_ok=True)
    ckpt = os.path.join(work_dir, "agent.npz")  # the same weights every repeat
    layers_path = os.path.join(
        work_dir, f"layers-{rep.cfg['workload']}-{rep.cfg['seed']}-r{rep.cfg['index']}.json"
    )
    bodies, expected = _record_episode(rep, ckpt)
    heavy = rep.cfg["workload"] == "serve-heavy"
    load = _Load(bodies, expected, rep.cfg["work"])

    rep.cfg["spawned_at"] = time.monotonic()
    proc = _spawn_server(rep, ckpt, layers_path)
    conns: List[_Conn] = []
    try:
        banner = proc.stdout.readline().decode()
        if not banner.startswith("serving on "):
            raise RuntimeError(f"server did not start: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        for _ in range(2 if heavy else 1):
            conn = _Conn(port)
            conn.session = conn.rpc({"op": "open", "model": {"kind": "default"}},
                                    "opened")["session"]
            conns.append(conn)
            # warm-up decision (set-up): the first forward of the session
            conn.sock.sendall(load.frame(conn, 0))
            warm = conn.recv()
            rep.check(warm.get("status") == "ok", f"warm-up decision failed: {warm}")
        rep.ready(record=False)  # the spans of a traced repeat are the server's
        if heavy:
            _closed_loop(conns, load)
        else:
            _open_loop(conns[0], load, rep.cfg["seed"])
        stats = conns[0].rpc({"op": "stats"}, "stats_reply")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    _stop_server(rep, proc, conns)

    rep.wall_s = load.last_reply - load.first_send
    rep.latencies_ms = load.latencies_ms
    ok = load.statuses.get("ok", 0)
    rep.decisions = ok
    rep.attempted = load.total
    rep.failed = load.total - ok
    accounted = sum(load.statuses.get(s, 0) for s in ("ok", "retry_after", "timeout", "error"))
    rep.check(accounted == load.total and not load.due,
              f"{load.total} requests but replies {load.statuses}, {len(load.due)} unanswered")
    rep.check(not load.wrong,
              f"{len(load.wrong)} served actions differ from the in-process policy")
    rep.check(stats["retry_after_total"] == load.statuses.get("retry_after", 0),
              f"server counted {stats['retry_after_total']} retry_after replies")
    rep.digest = hashlib.sha256(json.dumps(expected).encode()).hexdigest()
    rep.layers["loadgen.late_ms_max"] = load.late_max_s * 1e3
    if rep.cfg["traced"]:
        with open(layers_path) as fh:
            rep.layers.update(json.load(fh))
        rep.layers["serve.batch_size_mean"] = float(stats["mean_batch_size"])
        rep.layers["serve.retry_after"] = float(stats["retry_after_total"])
