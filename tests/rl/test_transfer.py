"""Agent checkpointing and zero-shot transfer across problem sizes."""

import numpy as np

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.trainer import default_agent, evaluate_agent
from repro.rl.transfer import load_agent, save_agent, transfer_evaluate
from repro.sim.env import SchedulingEnv


def make_env(tiles, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=rng,
    )


class TestSaveLoad:
    def test_roundtrip_identical_policy(self, tmp_path):
        env = make_env(3)
        agent = default_agent(env, rng=0)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path)
        obs = env.reset().obs
        np.testing.assert_allclose(
            agent.action_distribution(obs), restored.action_distribution(obs)
        )

    def test_config_restored(self, tmp_path):
        env = make_env(3)
        agent = default_agent(env, hidden_dim=32, num_gcn_layers=3, rng=0)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path)
        assert restored.config == agent.config

    def test_extra_metadata(self, tmp_path):
        env = make_env(3)
        agent = default_agent(env, rng=0)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path, trained_on="cholesky_T3")
        # metadata is stored; loading still works
        load_agent(path)


class TestTransferEvaluate:
    def test_same_agent_different_sizes(self, tmp_path):
        """The size-normalised features let one agent run on any T —
        the structural requirement behind the paper's §V-F."""
        small_env = make_env(3)
        agent = default_agent(small_env, rng=0)
        envs = {"T=4": make_env(4), "T=5": make_env(5)}
        results = transfer_evaluate(agent, envs, episodes=2, rng=0)
        assert set(results) == {"T=4", "T=5"}
        assert all(len(v) == 2 for v in results.values())
        assert all(m > 0 for v in results.values() for m in v)

    def test_transferred_agent_completes_larger_instance(self):
        agent = default_agent(make_env(3), rng=0)
        big = make_env(8)
        mks = evaluate_agent(agent, big, episodes=1, rng=0)
        assert mks[0] > 0

    def test_checkpoint_then_transfer(self, tmp_path):
        agent = default_agent(make_env(3), rng=0)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path)
        mks = evaluate_agent(restored, make_env(6), episodes=1, rng=0)
        assert mks[0] > 0
