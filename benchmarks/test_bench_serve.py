"""Decision-server throughput under Poisson open-loop load (BENCH_serve.json).

Each cell starts a fresh :class:`~repro.serve.server.DecisionServer` on a
unix socket and drives it with N concurrent clients.  Every client opens its
own session against the server's preloaded checkpoint and generates an
**open-loop** request stream: arrival gaps are exponential (Poisson process),
drawn independently of completions, so the offered load saturates the server
instead of adapting to it.  Clients pipeline over raw sockets — a sender
thread paces the arrivals, a receiver thread timestamps replies — which is
the load shape the cross-episode micro-batcher exists for.

Two server configurations sweep the same client counts:

* ``batched``   — ``max_batch=32``: one block-diagonal ``forward_batch``
  answers up to 32 decision points from any mix of sessions;
* ``unbatched`` — ``max_batch=1``: every request pays its own forward (the
  pre-batching execution shape).

Two claims are enforced here: at >= 8 concurrent clients the batched server
completes more decisions/s than ``max_batch=1``, and at 1 client its p50
latency is at most twice the unbatched p50 (drain-then-flush answers a lone
request without waiting out ``max_wait_us``).  One cell's p50 moves with
the machine from run to run, so the light-load check runs the 1-client pair
``LIGHT_REPEATS`` more times, batched and unbatched interleaved, and
compares the medians of their p50s.  Offered load is set
well above single-forward capacity, so overload behaviour (retry_after
backpressure) is part of the measurement: decisions/s counts only ``ok``
replies; latency percentiles (p50/p95/p99) are over ``ok`` replies too.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform
from repro.policy.codec import encode_observation
from repro.rl.trainer import default_agent
from repro.rl.transfer import save_agent
from repro.serve import protocol
from repro.serve.server import DecisionServer
from repro.sim import SchedulingEnv
from repro.spec import ServeSpec
from repro.utils.tables import format_table

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")

#: the served observation: a 36-node window, so one forward outweighs the
#: per-request codec and socket cost and ``max_batch=1`` saturates under the
#: 8-client load (a 10-node window let it answer nearly all of that load)
BENCH_TILES = 6
BENCH_WINDOW = 3
CLIENT_COUNTS = (1, 2, 4, 8)
REQUESTS_PER_CLIENT = 250
OFFERED_RATE_HZ = 1500.0  # per client — far beyond single-forward capacity
LIGHT_REPEATS = 5
CONFIGS = (("batched", 32), ("unbatched", 1))


class _ServerThread:
    """A DecisionServer on a private event loop in a daemon thread."""

    def __init__(self, spec, checkpoint):
        import asyncio

        self.server = DecisionServer(spec, checkpoint=checkpoint)
        self._ready = threading.Event()
        self._loop = None

        async def main():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_drained(install_signals=False)

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("bench server failed to start")

    def stop(self):
        self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(30)


def _drive_client(sock_path, obs_payload, n_requests, rate_hz, seed, barrier, out):
    """One open-loop client: Poisson sender + timestamping receiver."""
    import socket as socket_mod

    sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    sock.settimeout(120)
    sock.connect(sock_path)
    fh = sock.makefile("rwb")
    fh.write(
        protocol.encode_frame(
            {"op": "open", "model": {"kind": "default"}, "mode": "greedy"}
        )
    )
    fh.flush()
    opened = protocol.decode_frame(fh.readline())
    assert opened["op"] == "opened", opened
    session = opened["session"]

    send_times = {}
    latencies = []
    status_counts = {}

    def receive():
        for _ in range(n_requests):
            line = fh.readline()
            now = time.perf_counter()
            frame = json.loads(line)
            status = frame.get("status", "error")
            status_counts[status] = status_counts.get(status, 0) + 1
            if status == "ok":
                latencies.append(now - send_times[frame["seq"]])

    receiver = threading.Thread(target=receive)
    receiver.start()
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_hz, n_requests)
    barrier.wait()
    for index in range(n_requests):
        time.sleep(gaps[index])
        seq = index + 1
        frame = {
            "op": "decide",
            "session": session,
            "seq": seq,
            "obs": obs_payload,
        }
        data = protocol.encode_frame(frame)
        send_times[seq] = time.perf_counter()
        fh.write(data)
        fh.flush()
    receiver.join(120)
    fh.close()
    sock.close()
    out.append((latencies, status_counts))


def _run_cell(sock_path, checkpoint, obs_payload, n_clients, max_batch):
    spec = ServeSpec(
        unix_socket=sock_path,
        max_batch=max_batch,
        max_wait_us=2000,
        queue_cap=256,
        deadline_ms=10_000.0,
    )
    running = _ServerThread(spec, checkpoint)
    results = []
    barrier = threading.Barrier(n_clients + 1)
    threads = [
        threading.Thread(
            target=_drive_client,
            args=(
                sock_path,
                obs_payload,
                REQUESTS_PER_CLIENT,
                OFFERED_RATE_HZ,
                1000 + seed,
                barrier,
                results,
            ),
        )
        for seed in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(300)
    wall = time.perf_counter() - started
    running.stop()

    latencies = np.array(
        [value for lat, _ in results for value in lat], dtype=np.float64
    )
    statuses = {}
    for _, counts in results:
        for status, count in counts.items():
            statuses[status] = statuses.get(status, 0) + count
    ok = statuses.get("ok", 0)
    counters = running.server.counters
    batches = counters["batches_total"]
    cell = {
        "clients": n_clients,
        "max_batch": max_batch,
        "offered_per_client_hz": OFFERED_RATE_HZ,
        "requests": n_clients * REQUESTS_PER_CLIENT,
        "ok": ok,
        "retry_after": statuses.get("retry_after", 0),
        "timeout": statuses.get("timeout", 0),
        "wall_s": wall,
        "decisions_per_s": ok / wall if wall > 0 else 0.0,
        "mean_batch_size": (
            counters["batched_requests_total"] / batches if batches else 0.0
        ),
    }
    if latencies.size:
        cell["p50_ms"] = float(np.percentile(latencies, 50) * 1e3)
        cell["p95_ms"] = float(np.percentile(latencies, 95) * 1e3)
        cell["p99_ms"] = float(np.percentile(latencies, 99) * 1e3)
    return cell


@pytest.mark.slow
def test_bench_serve(tmp_path, record_property):
    env = SchedulingEnv(
        cholesky_dag(BENCH_TILES), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=BENCH_WINDOW, rng=0,
    )
    checkpoint = str(tmp_path / "bench_agent.npz")
    save_agent(default_agent(env, rng=0), checkpoint)
    obs_payload = encode_observation(env.reset(seed=0).obs)

    sweep = {}
    for n_clients in CLIENT_COUNTS:
        row = {}
        for label, max_batch in CONFIGS:
            sock = str(tmp_path / f"b{n_clients}_{max_batch}.sock")
            row[label] = _run_cell(
                sock, checkpoint, obs_payload, n_clients, max_batch
            )
        row["speedup"] = (
            row["batched"]["decisions_per_s"]
            / max(row["unbatched"]["decisions_per_s"], 1e-9)
        )
        sweep[n_clients] = row

    light_p50 = {label: [] for label, _ in CONFIGS}
    for repeat in range(LIGHT_REPEATS):
        for label, max_batch in CONFIGS:
            sock = str(tmp_path / f"light{repeat}_{max_batch}.sock")
            cell = _run_cell(sock, checkpoint, obs_payload, 1, max_batch)
            light_p50[label].append(cell["p50_ms"])
    light = {
        "clients": 1,
        "repeats": LIGHT_REPEATS,
        **{f"{label}_p50_ms": values for label, values in light_p50.items()},
        **{
            f"{label}_p50_ms_median": float(np.median(values))
            for label, values in light_p50.items()
        },
    }

    headline = sweep[8]
    payload = {
        "config": {
            "graph": f"cholesky({BENCH_TILES})",
            "platform": "2 CPU + 2 GPU",
            "window": BENCH_WINDOW,
            "client_counts": list(CLIENT_COUNTS),
            "requests_per_client": REQUESTS_PER_CLIENT,
            "offered_per_client_hz": OFFERED_RATE_HZ,
            "load": "open-loop Poisson arrivals per client",
            "batched": {"max_batch": 32, "max_wait_us": 2000},
            "unbatched": {"max_batch": 1},
        },
        "sweep": {str(k): v for k, v in sweep.items()},
        "light_load": light,
        "headline": {
            "clients": 8,
            "batched_decisions_per_s": headline["batched"]["decisions_per_s"],
            "unbatched_decisions_per_s": headline["unbatched"]["decisions_per_s"],
            "speedup": headline["speedup"],
        },
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    rows = []
    for n_clients, row in sweep.items():
        rows.append(
            [
                str(n_clients),
                f"{row['batched']['decisions_per_s']:.0f}",
                f"{row['unbatched']['decisions_per_s']:.0f}",
                f"{row['speedup']:.2f}x",
                f"{row['batched'].get('p50_ms', float('nan')):.1f}",
                f"{row['batched'].get('p95_ms', float('nan')):.1f}",
                f"{row['batched'].get('p99_ms', float('nan')):.1f}",
                f"{row['batched']['mean_batch_size']:.1f}",
            ]
        )
    print()
    print(
        format_table(
            ["clients", "batched d/s", "unbatched d/s", "speedup",
             "p50 ms", "p95 ms", "p99 ms", "mean batch"],
            rows,
        )
    )
    print(
        "1 client, median p50 of {n} interleaved repeats: batched {b:.2f} ms, "
        "unbatched {u:.2f} ms".format(
            n=LIGHT_REPEATS,
            b=light["batched_p50_ms_median"],
            u=light["unbatched_p50_ms_median"],
        )
    )
    record_property("bench", payload["headline"])

    # cross-episode batching wins under concurrent load ...
    assert headline["speedup"] > 1.05, payload["headline"]
    # ... and costs little latency when there is nothing to batch with
    assert (
        light["batched_p50_ms_median"] <= 2.0 * light["unbatched_p50_ms_median"]
    ), light
    for row in sweep.values():
        assert row["batched"]["ok"] > 0
        assert row["unbatched"]["ok"] > 0
