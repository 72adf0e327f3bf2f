"""Decisions read the window adjacency as raw CSR parts.

The state builder, the batch views, the codec and the array forward pass
``(data, indices, indptr)`` along; a ``scipy.sparse.csr_matrix`` costs
~10 µs to build and check, so none may be built on a K=1 greedy episode or
a served decide.  ``norm_adj`` stays available as a matrix, built on first
read, for the autograd tape and for users.
"""

import json

import pytest
from scipy import sparse as sp

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms import NoNoise, Platform
from repro.policy import AgentPolicy
from repro.rl.trainer import default_agent
from repro.serve.server import _Session
from repro.sim.env import SchedulingEnv
from tests.serve import test_server


@pytest.fixture
def csr_builds(monkeypatch):
    """Number of ``csr_matrix`` constructions since the fixture started."""
    built = []
    init = sp.csr_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    return built


def cholesky_env(tiles=6):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=0,
    )


def test_counter_sees_a_matrix_read(csr_builds):
    obs = cholesky_env(3).reset().obs
    assert not csr_builds
    obs.norm_adj  # noqa: B018 - the lazy build is the point
    assert len(csr_builds) == 1


def test_k1_greedy_episode_builds_no_csr_matrix(csr_builds):
    env = cholesky_env()
    agent = default_agent(env, hidden_dim=16, rng=0)
    obs, done, decisions = env.reset().obs, False, 0
    while not done:
        result = env.step(agent.greedy_action(obs))
        obs, done, decisions = result.obs, result.done, decisions + 1
    assert decisions > 50
    assert csr_builds == []


def test_served_decides_build_no_csr_matrix(csr_builds):
    env = cholesky_env()
    policy = AgentPolicy(default_agent(env, hidden_dim=16, rng=0))
    observations = [env.reset().obs]
    for _ in range(2):
        observations.append(env.step(0).obs)
    expected = [policy.decide(o) for o in observations]
    drills = test_server.TestQueueSemantics()

    async def scenario(server, writer):
        server._sessions["s1"] = _Session("s1", policy, "agent")
        for batch in (observations[:1], observations):  # B=1 and a flush of 3
            for seq, obs in enumerate(batch):
                frame = json.loads(json.dumps(drills.decide_frame(obs, seq=seq)))
                server._handle_decide(frame, writer)
            server._flush([server._queue.popleft() for _ in range(len(server._queue))])

    _, writer = drills.drill(scenario)
    replies = writer.replies()
    assert [r["status"] for r in replies] == ["ok"] * 4
    assert [r["action"] for r in replies] == expected[:1] + expected
    assert csr_builds == []
