"""The READYS agent network (Fig. 2)."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.nn.sparse import gcn_normalize_adjacency_sparse
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.sim.engine import Simulation
from repro.sim.state import (
    PROC_FEATURE_DIM,
    Observation,
    StateBuilder,
    observation_feature_dim,
)


def make_obs(num_nodes=5, num_ready=2, feature_dim=8, allow_pass=True, rng=None):
    rng = rng or np.random.default_rng(0)
    adj = np.triu((rng.random((num_nodes, num_nodes)) < 0.3).astype(float), 1)
    return Observation(
        features=rng.normal(size=(num_nodes, feature_dim)),
        norm_adj=gcn_normalize_adjacency_sparse(adj),
        ready_positions=np.arange(num_ready),
        ready_tasks=np.arange(num_ready),
        proc_features=rng.normal(size=PROC_FEATURE_DIM),
        current_proc=0,
        allow_pass=allow_pass,
    )


def make_agent(feature_dim=8, hidden=16, layers=2, rng=0):
    return ReadysAgent(
        AgentConfig(
            feature_dim=feature_dim,
            proc_feature_dim=PROC_FEATURE_DIM,
            hidden_dim=hidden,
            num_gcn_layers=layers,
        ),
        rng=rng,
    )


class TestAgentConfig:
    def test_valid(self):
        cfg = AgentConfig(feature_dim=5, proc_feature_dim=3)
        assert cfg.hidden_dim == 64

    @pytest.mark.parametrize(
        "kw",
        [
            dict(feature_dim=0, proc_feature_dim=3),
            dict(feature_dim=5, proc_feature_dim=0),
            dict(feature_dim=5, proc_feature_dim=3, hidden_dim=0),
            dict(feature_dim=5, proc_feature_dim=3, num_gcn_layers=0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            AgentConfig(**kw)


class TestForward:
    def test_logit_count_with_pass(self):
        agent = make_agent()
        obs = make_obs(num_ready=3, allow_pass=True)
        logits, value = agent.forward(obs)
        assert logits.shape == (4,)
        assert value.shape == (1,)

    def test_logit_count_without_pass(self):
        agent = make_agent()
        obs = make_obs(num_ready=3, allow_pass=False)
        logits, _ = agent.forward(obs)
        assert logits.shape == (3,)

    def test_no_ready_tasks_raises(self):
        agent = make_agent()
        obs = make_obs(num_ready=0)
        with pytest.raises(ValueError):
            agent.forward(obs)

    def test_deterministic_given_weights(self):
        agent = make_agent()
        obs = make_obs()
        a, _ = agent.forward(obs)
        b, _ = agent.forward(obs)
        np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_same_agent(self):
        obs = make_obs()
        a, _ = make_agent(rng=7).forward(obs)
        b, _ = make_agent(rng=7).forward(obs)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        obs = make_obs()
        a, _ = make_agent(rng=1).forward(obs)
        b, _ = make_agent(rng=2).forward(obs)
        assert not np.array_equal(a.data, b.data)


class TestPolicy:
    def test_distribution_sums_to_one(self):
        agent = make_agent()
        probs = agent.action_distribution(make_obs(num_ready=3))
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_sample_in_range(self):
        agent = make_agent()
        obs = make_obs(num_ready=2, allow_pass=True)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert 0 <= agent.sample_action(obs, rng) < 3

    def test_sample_respects_pass_mask(self):
        agent = make_agent()
        obs = make_obs(num_ready=2, allow_pass=False)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert 0 <= agent.sample_action(obs, rng) < 2

    def test_greedy_is_argmax(self):
        agent = make_agent()
        obs = make_obs(num_ready=3)
        logits, _ = agent.forward(obs)
        assert agent.greedy_action(obs) == int(np.argmax(logits.data))

    def test_state_value_scalar(self):
        agent = make_agent()
        v = agent.state_value(make_obs())
        assert isinstance(v, float)

    def test_inference_leaves_no_graph(self):
        agent = make_agent()
        agent.action_distribution(make_obs())
        # no gradients accumulated by inference-mode calls
        assert all(p.grad is None for p in agent.parameters())


class TestGradientsFlow:
    def test_all_parameters_receive_gradients(self):
        agent = make_agent()
        obs = make_obs(num_ready=2, allow_pass=True)
        logits, value = agent.forward(obs)
        loss = logits.sum() + value.sum()
        loss.backward()
        for name, p in agent.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"

    def test_pass_head_unused_when_masked(self):
        agent = make_agent()
        obs = make_obs(num_ready=2, allow_pass=False)
        logits, value = agent.forward(obs)
        (logits.sum() + value.sum()).backward()
        assert agent.pass_score.weight.grad is None


class TestOnRealObservations:
    def test_full_episode_observations(self):
        sim = Simulation(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0
        )
        builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
        agent = make_agent(feature_dim=observation_feature_dim(4))
        obs = builder.build(sim, 0, allow_pass=False)
        probs = agent.action_distribution(obs)
        assert probs.sum() == pytest.approx(1.0)

    def test_parameter_count_reasonable(self):
        agent = make_agent(feature_dim=observation_feature_dim(4), hidden=64)
        # in×h + h×h + heads — sanity that the net is small (ms inference)
        assert 1_000 < agent.num_parameters() < 100_000
