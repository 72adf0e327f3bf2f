"""DecisionServer end-to-end: row-identity, concurrency, robustness."""

import dataclasses
import json
import socket
import threading
import time

import numpy as np
import pytest
from scipy import sparse as sp

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.obs import METRICS, clock
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.policy import (
    AgentPolicy,
    InProcessClient,
    evaluate_policy,
)
from repro.rl.transfer import load_agent
from repro.schedulers import registry
from repro.serve import protocol
from repro.serve.client import RemoteClient, ServeError
from repro.serve.server import DecisionServer, _Session
from repro.sim.env import SchedulingEnv
from repro.sim.state import Observation
from repro.spec import ExperimentSpec, ServeSpec
from repro.policy.codec import WIRE_VERSION, DecisionRequest, encode_request


def make_env(tiles=3, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=rng,
    )


def with_fields(obs, **changes):
    """A plain :class:`Observation` copy of ``obs`` with ``changes`` applied."""
    values = {f.name: getattr(obs, f.name) for f in dataclasses.fields(Observation)}
    return Observation(**{**values, **changes})


def raw_connect(endpoint):
    _, _, path = protocol.parse_endpoint(endpoint)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(path)
    return sock


class TestProtocolSurface:
    def test_ping_pong_and_stats(self, serve_factory):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            fh = sock.makefile("rwb")
            fh.write(b'{"op":"ping"}\n')
            fh.flush()
            assert json.loads(fh.readline()) == {"op": "pong"}
            fh.write(b'{"op":"stats"}\n')
            fh.flush()
            stats = json.loads(fh.readline())
            assert stats["op"] == "stats_reply"
            assert stats["sessions"] == 0
            assert stats["draining"] is False

    def test_malformed_frame_errors_and_closes(self, serve_factory):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["op"] == "error"
            assert "malformed" in reply["detail"]
            assert fh.readline() == b""  # connection closed

    def test_unknown_op_is_reported_without_closing(self, serve_factory):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            fh = sock.makefile("rwb")
            fh.write(b'{"op":"teleport"}\n{"op":"ping"}\n')
            fh.flush()
            assert "teleport" in json.loads(fh.readline())["detail"]
            assert json.loads(fh.readline()) == {"op": "pong"}

    def test_oversized_frame_errors_and_closes(self, serve_factory):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            blob = b"a" * (protocol.MAX_FRAME + 4096) + b"\n"
            try:
                sock.sendall(blob)
            except (BrokenPipeError, ConnectionResetError):
                pass  # server already gave up on us mid-send
            fh = sock.makefile("rb")
            try:
                line = fh.readline()
            except ConnectionResetError:
                return
            if line:
                reply = json.loads(line)
                assert reply["op"] == "error"
                assert "exceeds" in reply["detail"]
            assert fh.readline() == b""

    @staticmethod
    def exchange(sock, *frames):
        """Send ``frames`` and read one reply frame per frame sent."""
        fh = sock.makefile("rwb")
        for frame in frames:
            fh.write(protocol.encode_frame(frame))
        fh.flush()
        return [json.loads(fh.readline()) for _ in frames]

    def test_opened_advertises_the_wire_version(self, serve_factory):
        running = serve_factory()
        model = {"kind": "scheduler", "name": "fifo"}
        with raw_connect(running.endpoint) as sock:
            bare, current, other = self.exchange(
                sock,
                {"op": "open", "model": model},  # no version: the current one
                {"op": "open", "model": model, "wire": WIRE_VERSION},
                {"op": "open", "model": model, "wire": 1},
            )
        assert bare["op"] == current["op"] == "opened"
        assert bare["wire"] == current["wire"] == WIRE_VERSION
        assert other["op"] == "error"
        assert "wire version 1" in other["detail"]

    @pytest.mark.parametrize("seq, echoed", [(0, 0), (7, 7), ("x", -1), (None, -1), (1.5, -1)])
    def test_undecodable_decide_gets_an_error_reply_and_the_connection_stays(
        self, serve_factory, seq, echoed
    ):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            opened, reply, pong = self.exchange(
                sock,
                {"op": "open", "model": {"kind": "scheduler", "name": "fifo"}},
                {"op": "decide", "session": "s?", "seq": seq, "obs": {}},
                {"op": "ping"},
            )
            assert opened["op"] == "opened"
            assert reply["op"] == "decision"
            assert reply["status"] == "error"
            assert reply["seq"] == echoed
            assert pong == {"op": "pong"}
            # the session the connection owns survived the bad frame
            (stats,) = self.exchange(sock, {"op": "stats"})
            assert stats["sessions"] == 1

    def test_open_unknown_scheduler_is_rejected(self, serve_factory):
        running = serve_factory()
        with pytest.raises(ServeError, match="unknown scheduler"):
            RemoteClient.for_scheduler(running.endpoint, "definitely-not-real")

    def test_open_unservable_scheduler_lists_the_servable_set(
        self, serve_factory
    ):
        running = serve_factory()
        with pytest.raises(ServeError, match="servable"):
            RemoteClient.for_scheduler(running.endpoint, "mct")

    def test_open_with_a_pre_workload_spec_names_its_loose_keys(
        self, serve_factory
    ):
        running = serve_factory()
        with pytest.raises(ServeError, match="'kernel', 'tiles'.*'workload'"):
            RemoteClient.for_scheduler(
                running.endpoint, "heft", spec={"kernel": "lu", "tiles": 3}
            )
        # the same keys next to a workload block (the format written before
        # the loose fields were removed) are ignored and the session opens
        spec = ExperimentSpec(workload={"kernel": "lu", "tiles": 3})
        mirrored = {**spec.to_dict(), "kernel": "lu", "tiles": 3}
        with RemoteClient.for_scheduler(
            running.endpoint, "heft", spec=mirrored
        ) as client:
            rows = evaluate_policy(spec.make_env(), client, episodes=1, seed=0)
        assert rows == evaluate_policy(
            spec.make_env(), registry.get_policy("heft", spec=spec),
            episodes=1, seed=0,
        )

    def test_open_with_a_retired_sparse_state_key(self, serve_factory):
        """Specs written while the dense/CSR switch existed still open."""
        running = serve_factory()
        spec = ExperimentSpec(workload={"kernel": "lu", "tiles": 3})
        with RemoteClient.for_scheduler(
            running.endpoint, "heft", spec={**spec.to_dict(), "sparse_state": True}
        ) as client:
            rows = evaluate_policy(spec.make_env(), client, episodes=1, seed=0)
        assert rows == evaluate_policy(
            spec.make_env(), registry.get_policy("heft", spec=spec),
            episodes=1, seed=0,
        )

    def test_open_default_without_checkpoint_fails(self, serve_factory):
        running = serve_factory()
        with pytest.raises(ServeError, match="checkpoint"):
            RemoteClient(running.endpoint)


class TestRowIdentity:
    def test_served_baseline_matches_in_process(self, serve_factory):
        running = serve_factory()
        local = evaluate_policy(
            make_env(),
            InProcessClient(registry.get_policy("greedy-eft")),
            episodes=3,
            seed=11,
        )
        with RemoteClient.for_scheduler(running.endpoint, "greedy-eft") as client:
            remote = evaluate_policy(make_env(), client, episodes=3, seed=11)
        assert remote == local  # makespans, rewards and full action rows

    def test_served_checkpoint_matches_in_process(
        self, serve_factory, trained_checkpoint
    ):
        running = serve_factory(checkpoint=trained_checkpoint)
        local = evaluate_policy(
            make_env(),
            InProcessClient(AgentPolicy(load_agent(trained_checkpoint))),
            episodes=3,
            seed=5,
        )
        # both admission paths must resolve to the same loaded model
        with RemoteClient(running.endpoint) as client:
            via_default = evaluate_policy(make_env(), client, episodes=3, seed=5)
        with RemoteClient.for_checkpoint(
            running.endpoint, trained_checkpoint
        ) as client:
            via_path = evaluate_policy(make_env(), client, episodes=3, seed=5)
        assert via_default == local
        assert via_path == local
        assert len(running.server._models) == 1  # shared by content hash

    def test_decide_many_pipelining_matches_sequential(self, serve_factory):
        running = serve_factory()
        env = make_env()
        obs = env.reset(seed=0).obs
        with RemoteClient.for_scheduler(running.endpoint, "greedy-eft") as client:
            batched = client.decide_many([obs] * 16)
            sequential = [client.decide(obs) for _ in range(16)]
        assert batched == sequential


class TestConcurrencySoak:
    def test_concurrent_clients_match_sequential_in_process(self, serve_factory):
        """N concurrent remote episodes, each bit-identical to its local twin.

        Clients interleave on the server and share micro-batches; grouping
        must still answer every episode exactly as a sequential in-process
        evaluation of the same (env, seed) would.
        """
        n_clients, episodes = 6, 2
        expected = [
            evaluate_policy(
                make_env(),
                InProcessClient(registry.get_policy("greedy-eft")),
                episodes=episodes,
                seed=seed,
            )
            for seed in range(n_clients)
        ]
        running = serve_factory()
        results = [None] * n_clients
        errors = []

        def run(seed):
            try:
                with RemoteClient.for_scheduler(
                    running.endpoint, "greedy-eft"
                ) as client:
                    results[seed] = evaluate_policy(
                        make_env(), client, episodes=episodes, seed=seed
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append((seed, exc))

        threads = [
            threading.Thread(target=run, args=(seed,))
            for seed in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        assert results == expected
        decisions = sum(
            record.num_decisions for rows in expected for record in rows
        )
        assert running.server.counters["decisions_total"] == decisions


class TestSessionLifecycle:
    def test_disconnect_frees_sessions(self, serve_factory):
        running = serve_factory()
        env = make_env()
        obs = env.reset(seed=0).obs
        client = RemoteClient.for_scheduler(running.endpoint, "greedy-eft")
        client.decide(obs)
        # abrupt disconnect: no close_session frame, just a dead socket
        # (makefile() dups the fd — both must close for the FIN to go out)
        client._file.close()
        client._sock.close()
        with RemoteClient.for_scheduler(running.endpoint, "fifo") as probe:
            for _ in range(100):
                if probe.stats()["sessions"] == 1:  # only the probe remains
                    break
                time.sleep(0.02)
            else:
                pytest.fail("disconnected session was never freed")

    def test_decide_on_closed_session_is_an_error_reply(self, serve_factory):
        running = serve_factory()
        env = make_env()
        obs = env.reset(seed=0).obs
        client = RemoteClient.for_scheduler(running.endpoint, "greedy-eft")
        sid = client._session
        client.close()
        with RemoteClient.for_scheduler(running.endpoint, "fifo") as probe:
            probe._session = sid  # impersonate the closed session
            with pytest.raises(ServeError, match="unknown session"):
                probe.decide(obs)

    @pytest.mark.parametrize("ending", ["open", "half_close", "malformed"])
    def test_drain_is_not_held_by_a_peer_that_stopped_reading(
        self, serve_factory, ending
    ):
        running = serve_factory()
        with raw_connect(running.endpoint) as sock:
            # the pongs fill the socket buffers and then the server's own
            # write buffer, because this client never reads them
            sock.sendall(b'{"op":"ping"}\n' * 60_000)
            if ending == "half_close":
                # the handler sees EOF and parks in ``wait_closed``
                sock.shutdown(socket.SHUT_WR)
            elif ending == "malformed":
                # the handler gives up on the connection, same place
                sock.sendall(b"not json\n")
            deadline = time.monotonic() + 30
            while not any(
                writer.transport.get_write_buffer_size() > 100_000
                for writer in list(running.server._connections.values())
            ):
                assert time.monotonic() < deadline, "no write backlog built up"
                time.sleep(0.05)
            started = time.monotonic()
            running.stop()  # raises if the drain hangs on the backlog
            assert time.monotonic() - started < 10
        assert not running.server._connections

    def test_reset_restarts_a_static_replay_session(self, serve_factory):
        running = serve_factory()
        spec = ExperimentSpec(workload={"tiles": 3})
        with RemoteClient.for_scheduler(
            running.endpoint, "heft", spec=spec
        ) as client:
            first = evaluate_policy(spec.make_env(), client, episodes=2, seed=0)
            second = evaluate_policy(spec.make_env(), client, episodes=2, seed=0)
        assert first == second  # replay cursor rewound by reset each episode


class TestQueueSemantics:
    """Deterministic unit drills of the enqueue/flush machinery."""

    class StubWriter:
        def __init__(self):
            self.lines = []

        def is_closing(self):
            return False

        def write(self, data):
            self.lines.append(data)

        def replies(self):
            return [json.loads(line) for line in self.lines]

    @staticmethod
    def decide_frame(obs, seq=1, deadline_ms=None):
        payload = encode_request(
            DecisionRequest(
                session="s1", seq=seq, obs=obs, deadline_ms=deadline_ms
            )
        )
        payload["op"] = protocol.OP_DECIDE
        return payload

    def drill(self, coro_fn, spec=None):
        import asyncio

        async def main():
            server = DecisionServer(spec or ServeSpec())
            server._queue_event = asyncio.Event()
            server._sessions["s1"] = _Session(
                "s1", registry.get_policy("greedy-eft"), "sched:greedy-eft:0"
            )
            writer = self.StubWriter()
            await coro_fn(server, writer)
            return server, writer

        return asyncio.run(main())

    def test_expired_deadline_gets_a_timeout_reply(self):
        obs = make_env().reset(seed=0).obs
        cell = {"t": 0.0}
        clock.set_clock(lambda: cell["t"])
        try:

            async def scenario(server, writer):
                server._handle_decide(self.decide_frame(obs, deadline_ms=50.0), writer)
                assert len(server._queue) == 1
                cell["t"] = 1.0  # well past the 50ms deadline
                server._flush([server._queue.popleft()])

            server, writer = self.drill(scenario)
        finally:
            clock.reset_clock()
        (reply,) = writer.replies()
        assert reply["status"] == "timeout"
        assert "deadline" in reply["detail"]
        assert server.counters["timeout_total"] == 1
        assert server.counters["decisions_total"] == 0

    def test_request_deadline_cannot_exceed_the_server_default(self):
        obs = make_env().reset(seed=0).obs
        cell = {"t": 0.0}
        clock.set_clock(lambda: cell["t"])
        try:

            async def scenario(server, writer):
                server._handle_decide(
                    self.decide_frame(obs, deadline_ms=10_000_000.0), writer
                )
                pending = server._queue[0]
                assert pending.deadline_at <= server.spec.deadline_ms / 1e3

            self.drill(scenario)
        finally:
            clock.reset_clock()

    def test_backpressure_replies_retry_after_at_queue_cap(self):
        obs = make_env().reset(seed=0).obs

        async def scenario(server, writer):
            server._handle_decide(self.decide_frame(obs, seq=1), writer)
            server._handle_decide(self.decide_frame(obs, seq=2), writer)

        server, writer = self.drill(
            scenario, spec=ServeSpec(queue_cap=1)
        )
        replies = writer.replies()
        assert len(replies) == 1  # first was queued, second answered at once
        assert replies[0]["status"] == "retry_after"
        assert replies[0]["seq"] == 2
        assert "capacity" in replies[0]["detail"]
        assert server.counters["retry_after_total"] == 1

    def test_draining_server_pushes_back_and_refuses_admission(self):
        obs = make_env().reset(seed=0).obs

        async def scenario(server, writer):
            server._draining = True
            server._handle_decide(self.decide_frame(obs), writer)
            assert writer.replies()[-1]["status"] == "retry_after"
            reply = server._handle_open({"op": "open"}, set())
            assert reply["op"] == "error"
            assert "draining" in reply["detail"]

        self.drill(scenario)

    def test_policy_error_fails_only_the_bad_request(self):
        env = make_env()
        obs = env.reset(seed=0).obs

        class Picky:
            """Raises on observations whose first ready task is the marker."""

            def decide(self, observation):
                if int(observation.ready_tasks[0]) == 10_000:
                    raise RuntimeError("unmappable decision point")
                return 0

            def decide_many(self, obs_list):
                return [self.decide(o) for o in obs_list]

        async def scenario(server, writer):
            server._sessions["s1"].policy = Picky()
            good = self.decide_frame(obs, seq=1)
            marked = np.full_like(obs.ready_tasks, 10_000)
            bad = self.decide_frame(with_fields(obs, ready_tasks=marked), seq=2)
            server._handle_decide(good, writer)
            server._handle_decide(bad, writer)
            # the shared decide_many raises → per-request fallback isolates it
            server._flush([server._queue.popleft(), server._queue.popleft()])

        server, writer = self.drill(scenario)
        by_seq = {r["seq"]: r for r in writer.replies()}
        assert by_seq[1]["status"] == "ok"
        assert by_seq[2]["status"] == "error"
        assert server.counters["decisions_total"] == 1
        assert server.counters["error_total"] == 1

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_adjacency_size_mismatch_fails_only_the_bad_request(self, delta):
        """A served window whose adjacency is a row short or long is refused
        at decode; the rest of its batch decides as usual."""
        from repro.rl.trainer import default_agent

        env = make_env()
        obs = env.reset(seed=0).obs
        policy = AgentPolicy(default_agent(env, hidden_dim=16, rng=0))

        async def scenario(server, writer):
            server._sessions["s1"].policy = policy
            rows = obs.norm_adj
            rows = rows.toarray() if hasattr(rows, "toarray") else rows
            m = len(rows) + delta
            resized = np.zeros((m, m))
            k = min(m, len(rows))
            resized[:k, :k] = rows[:k, :k]
            bad = self.decide_frame(with_fields(obs, norm_adj=sp.csr_matrix(resized)), seq=2)
            for frame in (self.decide_frame(obs, seq=1), bad, self.decide_frame(obs, seq=3)):
                server._handle_decide(frame, writer)
            server._flush([server._queue.popleft() for _ in range(len(server._queue))])

        server, writer = self.drill(scenario)
        by_seq = {r["seq"]: r for r in writer.replies()}
        assert by_seq[2]["status"] == "error"
        assert "feature rows" in by_seq[2]["detail"]
        assert by_seq[1]["status"] == by_seq[3]["status"] == "ok"
        assert by_seq[1]["action"] == by_seq[3]["action"] == policy.decide(obs)
        assert server.counters["decisions_total"] == 2


class TestFlushPolicy:
    """Drain-then-flush: how many requests a flush answers, and why it went."""

    @staticmethod
    def run_burst(serve_factory, tmp_path, n_requests, rounds=1, **knobs):
        """``rounds`` times, write ``n_requests`` decide frames in one
        ``sendall`` and read every reply; returns (slowest round s, stats)."""
        spec = ServeSpec(unix_socket=str(tmp_path / "flush.sock"), **knobs)
        running = serve_factory(spec=spec)
        obs = make_env().reset(seed=0).obs
        with raw_connect(running.endpoint) as sock:
            fh = sock.makefile("rwb")
            fh.write(
                protocol.encode_frame(
                    {"op": "open", "model": {"kind": "scheduler", "name": "greedy-eft"}}
                )
            )
            fh.flush()
            session = json.loads(fh.readline())["session"]
            slowest = 0.0
            for round_index in range(rounds):
                burst = b""
                for index in range(n_requests):
                    payload = encode_request(
                        DecisionRequest(
                            session=session,
                            seq=round_index * n_requests + index + 1,
                            obs=obs,
                        )
                    )
                    payload["op"] = protocol.OP_DECIDE
                    burst += protocol.encode_frame(payload)
                started = time.perf_counter()
                sock.sendall(burst)
                replies = [json.loads(fh.readline()) for _ in range(n_requests)]
                slowest = max(slowest, time.perf_counter() - started)
                assert [r["status"] for r in replies] == ["ok"] * n_requests
            fh.write(b'{"op":"stats"}\n')
            fh.flush()
            stats = json.loads(fh.readline())
        return slowest, stats

    def test_lone_request_is_not_held_for_max_wait(self, serve_factory, tmp_path):
        elapsed, stats = self.run_burst(
            serve_factory, tmp_path, 1, max_wait_us=5_000_000
        )
        assert elapsed < 1.0
        assert stats["batches_total"] == 1
        assert stats["flush_idle_total"] == 1
        assert stats["flush_full_total"] == stats["flush_capped_total"] == 0

    @pytest.mark.parametrize(
        "max_batch, reason", [(32, "flush_idle_total"), (4, "flush_full_total")]
    )
    def test_burst_in_one_write_is_one_batch(
        self, serve_factory, tmp_path, max_batch, reason
    ):
        elapsed, stats = self.run_burst(
            serve_factory, tmp_path, 4, max_batch=max_batch
        )
        assert elapsed < 1.0
        assert stats["batches_total"] == 1
        assert stats["mean_batch_size"] == 4
        assert stats[reason] == 1

    def test_max_batch_one_answers_one_request_per_flush(
        self, serve_factory, tmp_path
    ):
        METRICS.enabled = True
        METRICS.reset()
        try:
            _, stats = self.run_burst(serve_factory, tmp_path, 4, max_batch=1)
            flush_full = METRICS.counter("serve/flush_full").value
        finally:
            METRICS.enabled = False
            METRICS.reset()
        assert stats["batches_total"] == 4
        assert stats["mean_batch_size"] == 1
        assert stats["flush_full_total"] == flush_full == 4

    def test_zero_max_wait_flushes_without_collecting(
        self, serve_factory, tmp_path
    ):
        _, stats = self.run_burst(
            serve_factory, tmp_path, 1, rounds=3, max_wait_us=0
        )
        assert stats["batches_total"] == 3
        assert stats["mean_batch_size"] == 1
        assert stats["flush_capped_total"] == 3


class TestClientBackoff:
    def test_client_resends_after_retry_after(self, serve_factory, tmp_path):
        # cap the queue at 1 with slow flushes so contention is real
        spec = ServeSpec(
            unix_socket=str(tmp_path / "tight.sock"),
            queue_cap=1,
            max_batch=1,
            max_wait_us=0,
        )
        running = serve_factory(spec=spec)
        env = make_env()
        obs = env.reset(seed=0).obs
        expected = InProcessClient(registry.get_policy("greedy-eft")).decide(obs)
        with RemoteClient.for_scheduler(running.endpoint, "greedy-eft") as client:
            actions = client.decide_many([obs] * 8)
        assert actions == [expected] * 8


class TestClientOversizedFrame:
    def test_oversized_request_raises_before_any_byte_is_written(self, serve_factory):
        """The client frames through ``encode_frame``: a request over
        ``MAX_FRAME`` raises ``FrameError`` with nothing sent, so the
        connection stays usable."""
        running = serve_factory()
        env = make_env()
        obs = env.reset(seed=0).obs
        m = protocol.MAX_FRAME // (12 * 6) + 1  # 12 float columns, ~10.7 B each
        loops = np.arange(m + 1, dtype=np.int32)
        huge = Observation(
            features=np.zeros((m, 12)), norm_adj=(np.ones(m), loops[:-1], loops),
            ready_positions=np.array([0]), ready_tasks=np.array([0]),
            proc_features=obs.proc_features, current_proc=0, allow_pass=False,
        )
        with RemoteClient.for_scheduler(running.endpoint, "greedy-eft") as client:
            written = []
            real = client._file

            class Spy:
                def write(self, data):
                    written.append(len(data))
                    return real.write(data)

                def __getattr__(self, name):
                    return getattr(real, name)

            client._file = Spy()
            with pytest.raises(protocol.FrameError, match="MAX_FRAME"):
                client.decide(huge)
            assert written == []
            action = client.decide(obs)  # the stream was not corrupted
        assert 0 <= action < obs.num_actions
        assert written
