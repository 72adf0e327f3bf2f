"""Fixtures for the serve suite: a live DecisionServer on a background loop."""

import asyncio
import threading

import pytest

from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.rl.transfer import save_agent
from repro.serve.server import DecisionServer
from repro.spec import ExperimentSpec, ServeSpec


@pytest.fixture(scope="session")
def trained_checkpoint(tmp_path_factory):
    """A briefly-trained agent checkpoint (trained, not just initialised)."""
    trainer = ReadysTrainer.from_spec(
        ExperimentSpec(workload={"tiles": 3}), config=A2CConfig(unroll_length=8)
    )
    trainer.train_updates(2)
    path = str(tmp_path_factory.mktemp("ckpt") / "agent.npz")
    save_agent(trainer.agent, path)
    return path


class RunningServer:
    """One DecisionServer on its own event loop in a daemon thread.

    The asyncio server and the synchronous test-side clients need separate
    threads (a blocked client would starve a same-thread loop).  ``stop()``
    requests the graceful drain path — the same code SIGTERM runs.
    """

    def __init__(self, spec, checkpoint=None, mode="greedy"):
        self.server = DecisionServer(spec, checkpoint=checkpoint, mode=mode)
        self.endpoint = None
        self._loop = None
        self._error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(15):
            raise RuntimeError("decision server failed to start in 15s")
        if self._error is not None:
            raise self._error

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the starting thread
            self._error = exc
            self._ready.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self.endpoint = self.server.endpoint
        self._ready.set()
        await self.server.serve_until_drained(install_signals=False)

    def stop(self):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(15)
        if self._thread.is_alive():
            raise RuntimeError("decision server did not drain in 15s")


@pytest.fixture
def serve_factory(tmp_path):
    """Start servers on per-test unix sockets; drain them all at teardown."""
    servers = []

    def start(spec=None, **kwargs):
        if spec is None:
            spec = ServeSpec(unix_socket=str(tmp_path / f"s{len(servers)}.sock"))
        running = RunningServer(spec, **kwargs)
        servers.append(running)
        return running

    yield start
    for running in servers:
        running.stop()
