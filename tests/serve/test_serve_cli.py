"""The ``repro serve`` CLI as a real subprocess: startup, SIGTERM drain,
and ``repro evaluate --server`` against it (the CI serve-smoke pair)."""

import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.policy import AgentPolicy, InProcessClient, evaluate_policy
from repro.rl.transfer import load_agent
from repro.serve.client import RemoteClient
from repro.sim.env import SchedulingEnv
from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def make_env(tiles=3, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=rng,
    )


def spawn_server(sock_path, checkpoint, *extra):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix-socket", sock_path,
            "--checkpoint", checkpoint,
            "--max-batch", "8",
            *extra,
        ],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(sock_path):
            return proc
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise RuntimeError(f"server died at startup:\n{out}\n{err}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server socket never appeared")


@pytest.mark.slow
def test_serve_smoke_two_clients_then_sigterm_drain(
    tmp_path, trained_checkpoint
):
    """The CI serve-smoke scenario: an episode pair, row-equality, drain."""
    sock = str(tmp_path / "smoke.sock")
    proc = spawn_server(sock, trained_checkpoint)
    try:
        endpoint = f"unix:{sock}"
        local_policy = InProcessClient(
            AgentPolicy(load_agent(trained_checkpoint))
        )
        for seed in (0, 1):  # two independent client episodes
            local = evaluate_policy(
                make_env(), local_policy, episodes=1, seed=seed
            )
            with RemoteClient(endpoint) as client:
                remote = evaluate_policy(
                    make_env(), client, episodes=1, seed=seed
                )
            assert remote == local
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert "serving on unix:" in out
    assert "drained:" in out


@pytest.mark.slow
def test_evaluate_cli_against_a_live_server(tmp_path, trained_checkpoint):
    """``evaluate --server`` prints the mean local ``evaluate`` prints."""
    sock = str(tmp_path / "eval.sock")
    proc = spawn_server(sock, trained_checkpoint)
    flags = [
        "--tiles", "3", "--sigma", "0.3", "--seed", "2",
        "--agent", trained_checkpoint, "--runs", "3",
    ]
    try:
        served = run_evaluate(*flags, "--server", f"unix:{sock}")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert f"served via unix:{sock}" in served
    assert "server:" in served  # decisions + mean batch line
    local = run_evaluate(*flags)
    assert "served via" not in local
    assert mean_of(served) == mean_of(local)


def run_evaluate(*flags):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "evaluate", *flags],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def mean_of(stdout):
    """The mean makespan of ``evaluate``'s static summary line."""
    match = re.search(r" mean ([0-9.]+) over ", stdout)
    assert match, stdout
    return match.group(1)


@pytest.mark.slow
def test_sigterm_with_an_idle_connection_drains_without_traceback(
    tmp_path, trained_checkpoint
):
    """A client that pinged and then went quiet is still parked in the
    server's ``readline`` at SIGTERM; the drain must close it and let its
    handler finish instead of the loop cancelling it mid-read."""
    sock_path = str(tmp_path / "idle.sock")
    proc = spawn_server(sock_path, trained_checkpoint)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(sock_path)
            fh = sock.makefile("rwb")
            fh.write(b'{"op":"ping"}\n')
            fh.flush()
            assert fh.readline() == b'{"op":"pong"}\n'
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert fh.readline() == b""  # the drain closed the connection
            fh.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "Traceback" not in err, err
    assert "drained:" in out
