"""A2C: returns computation, update mechanics, learning direction."""

import numpy as np
import pytest

from repro.nn.sparse import gcn_normalize_adjacency_sparse
from repro.rl.a2c import A2CConfig, A2CUpdater, Transition
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.sim.state import PROC_FEATURE_DIM, Observation


def bandit_obs(num_ready=2, feature_dim=6, rng=None):
    rng = rng or np.random.default_rng(0)
    n = num_ready + 2
    adj = np.zeros((n, n))
    return Observation(
        features=rng.normal(size=(n, feature_dim)),
        norm_adj=gcn_normalize_adjacency_sparse(adj),
        ready_positions=np.arange(num_ready),
        ready_tasks=np.arange(num_ready),
        proc_features=np.zeros(PROC_FEATURE_DIM),
        current_proc=0,
        allow_pass=False,
    )


def make_updater(**cfg_kw):
    agent = ReadysAgent(
        AgentConfig(feature_dim=6, proc_feature_dim=PROC_FEATURE_DIM, hidden_dim=16, num_gcn_layers=1),
        rng=0,
    )
    return agent, A2CUpdater(agent, A2CConfig(**cfg_kw))


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = A2CConfig()
        assert cfg.gamma == 0.99
        assert cfg.learning_rate == 1e-2
        assert cfg.value_coef == 0.5
        assert cfg.unroll_length == 40

    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=1.5),
            dict(gamma=-0.1),
            dict(learning_rate=0.0),
            dict(value_coef=-1.0),
            dict(entropy_coef=-1.0),
            dict(unroll_length=0),
            dict(max_grad_norm=0.0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            A2CConfig(**kw)


class TestComputeReturns:
    def test_terminal_only_reward(self):
        _, up = make_updater(gamma=0.5)
        obs = bandit_obs()
        trans = [
            Transition(obs, 0, 0.0, False),
            Transition(obs, 0, 0.0, False),
            Transition(obs, 0, 1.0, True),
        ]
        returns = up.compute_returns(trans, bootstrap_value=99.0)
        np.testing.assert_allclose(returns, [0.25, 0.5, 1.0])

    def test_bootstrap_used_when_not_done(self):
        _, up = make_updater(gamma=0.5)
        obs = bandit_obs()
        trans = [Transition(obs, 0, 1.0, False)]
        returns = up.compute_returns(trans, bootstrap_value=4.0)
        np.testing.assert_allclose(returns, [1.0 + 0.5 * 4.0])

    def test_episode_boundary_resets(self):
        _, up = make_updater(gamma=1.0)
        obs = bandit_obs()
        trans = [
            Transition(obs, 0, 1.0, True),
            Transition(obs, 0, 2.0, False),
            Transition(obs, 0, 3.0, True),
        ]
        returns = up.compute_returns(trans, bootstrap_value=50.0)
        np.testing.assert_allclose(returns, [1.0, 5.0, 3.0])

    def test_dense_rewards_accumulate(self):
        _, up = make_updater(gamma=1.0)
        obs = bandit_obs()
        trans = [Transition(obs, 0, -0.1, False) for _ in range(4)]
        returns = up.compute_returns(trans, bootstrap_value=0.0)
        np.testing.assert_allclose(returns, [-0.4, -0.3, -0.2, -0.1])


class TestUpdate:
    def test_empty_unroll_raises(self):
        _, up = make_updater()
        with pytest.raises(ValueError):
            up.update([], 0.0)

    def test_returns_stats(self):
        agent, up = make_updater(unroll_length=4)
        obs = bandit_obs()
        trans = [Transition(obs, 0, 1.0, True) for _ in range(4)]
        stats = up.update(trans, 0.0)
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy >= 0
        assert stats.grad_norm >= 0
        assert stats.mean_return == pytest.approx(1.0)

    def test_update_changes_parameters(self):
        agent, up = make_updater()
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        obs = bandit_obs()
        up.update([Transition(obs, 0, 1.0, True)], 0.0)
        after = agent.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_value_learns_constant_reward(self):
        agent, up = make_updater(entropy_coef=0.0, learning_rate=0.05)
        obs = bandit_obs()
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = agent.sample_action(obs, rng)
            up.update([Transition(obs, a, 1.0, True)], 0.0)
        assert agent.state_value(obs) == pytest.approx(1.0, abs=0.1)


class TestLearningDirection:
    def test_bandit_prefers_rewarded_action(self):
        """The defining sanity check: policy mass moves to the +1 action."""
        agent, up = make_updater(gamma=1.0, entropy_coef=0.0, learning_rate=0.02)
        obs = bandit_obs(num_ready=2)
        rng = np.random.default_rng(0)
        for _ in range(60):
            trans = []
            for _ in range(8):
                a = agent.sample_action(obs, rng)
                trans.append(Transition(obs, a, 1.0 if a == 0 else -1.0, True))
            up.update(trans, 0.0)
        probs = agent.action_distribution(obs)
        assert probs[0] > 0.9

    def test_entropy_regularisation_keeps_policy_softer(self):
        def final_entropy(beta):
            agent, up = make_updater(gamma=1.0, entropy_coef=beta, learning_rate=0.02)
            obs = bandit_obs(num_ready=2)
            rng = np.random.default_rng(0)
            for _ in range(50):
                trans = []
                for _ in range(8):
                    a = agent.sample_action(obs, rng)
                    trans.append(Transition(obs, a, 1.0 if a == 0 else -1.0, True))
                up.update(trans, 0.0)
            p = agent.action_distribution(obs)
            p = np.clip(p, 1e-12, 1.0)
            return -(p * np.log(p)).sum()

        assert final_entropy(0.5) > final_entropy(0.0)

    def test_advantage_normalization_toggle_runs(self):
        for flag in (True, False):
            agent, up = make_updater(normalize_advantage=flag)
            obs = bandit_obs()
            stats = up.update(
                [Transition(obs, 0, 1.0, True), Transition(obs, 0, 0.5, True)], 0.0
            )
            assert np.isfinite(stats.policy_loss)
