"""PPO: GAE computation, clipped-surrogate updates, learning direction."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.nn import functional as F
from repro.nn.sparse import gcn_normalize_adjacency_sparse
from repro.nn.tensor import no_grad
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.rl.ppo import PPOConfig, PPOTrainer, PPOTransition, compute_gae
from repro.rl.trainer import default_agent
from repro.sim.env import SchedulingEnv
from repro.sim.state import PROC_FEATURE_DIM, Observation


def bandit_obs(num_ready=2, feature_dim=6, rng=None):
    rng = rng or np.random.default_rng(0)
    n = num_ready + 2
    return Observation(
        features=rng.normal(size=(n, feature_dim)),
        norm_adj=gcn_normalize_adjacency_sparse(np.zeros((n, n))),
        ready_positions=np.arange(num_ready),
        ready_tasks=np.arange(num_ready),
        proc_features=np.zeros(PROC_FEATURE_DIM),
        current_proc=0,
        allow_pass=False,
    )


def tiny_agent(feature_dim=6):
    return ReadysAgent(
        AgentConfig(feature_dim=feature_dim, proc_feature_dim=PROC_FEATURE_DIM,
                    hidden_dim=16, num_gcn_layers=1),
        rng=0,
    )


def env_for_tests(tiles=3):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=0,
    )


class TestPPOConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=1.1),
            dict(gae_lambda=-0.1),
            dict(clip_epsilon=0.0),
            dict(learning_rate=0.0),
            dict(rollout_length=0),
            dict(num_epochs=0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            PPOConfig(**kw)

    def test_defaults(self):
        cfg = PPOConfig()
        assert cfg.clip_epsilon == 0.2
        assert cfg.gae_lambda == 0.95


class TestGAE:
    def test_single_terminal_step(self):
        obs = bandit_obs()
        trans = [PPOTransition(obs, 0, 1.0, True, 0.0, 0.3)]
        adv = compute_gae(trans, bootstrap_value=9.0, gamma=0.9, lam=0.9)
        # terminal: delta = r - V = 0.7; bootstrap ignored
        np.testing.assert_allclose(adv, [0.7])

    def test_bootstrap_flows_when_not_done(self):
        obs = bandit_obs()
        trans = [PPOTransition(obs, 0, 0.0, False, 0.0, 0.0)]
        adv = compute_gae(trans, bootstrap_value=2.0, gamma=0.5, lam=1.0)
        np.testing.assert_allclose(adv, [1.0])

    def test_lambda_zero_is_td_error(self):
        obs = bandit_obs()
        trans = [
            PPOTransition(obs, 0, 1.0, False, 0.0, 0.5),
            PPOTransition(obs, 0, 2.0, True, 0.0, 0.25),
        ]
        adv = compute_gae(trans, 0.0, gamma=1.0, lam=0.0)
        # step1 (terminal): delta = 2 - 0.25 = 1.75
        # step0: delta = 1 + V(s1) - V(s0) = 1 + 0.25 - 0.5 = 0.75
        np.testing.assert_allclose(adv, [0.75, 1.75])

    def test_lambda_one_is_monte_carlo(self):
        obs = bandit_obs()
        trans = [
            PPOTransition(obs, 0, 1.0, False, 0.0, 0.0),
            PPOTransition(obs, 0, 1.0, True, 0.0, 0.0),
        ]
        adv = compute_gae(trans, 0.0, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, [2.0, 1.0])

    def test_episode_boundary_resets(self):
        obs = bandit_obs()
        trans = [
            PPOTransition(obs, 0, 5.0, True, 0.0, 0.0),
            PPOTransition(obs, 0, 1.0, True, 0.0, 0.0),
        ]
        adv = compute_gae(trans, 0.0, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, [5.0, 1.0])


class TestPPOTrainerMechanics:
    def test_rollout_length(self):
        env = env_for_tests()
        trainer = PPOTrainer(env, tiny_agent(feature_dim=18),
                             PPOConfig(rollout_length=12), rng=0)
        transitions, bootstrap = trainer.collect_rollout()
        assert len(transitions) == 12
        assert np.isfinite(bootstrap)

    def test_rollout_records_policy_stats(self):
        env = env_for_tests()
        trainer = PPOTrainer(env, tiny_agent(feature_dim=18),
                             PPOConfig(rollout_length=6), rng=0)
        transitions, _ = trainer.collect_rollout()
        for t in transitions:
            assert t.log_prob <= 0.0
            assert np.isfinite(t.value)

    def test_update_empty_raises(self):
        env = env_for_tests()
        trainer = PPOTrainer(env, tiny_agent(feature_dim=18), rng=0)
        with pytest.raises(ValueError):
            trainer.update([], 0.0)

    def test_update_changes_parameters(self):
        env = env_for_tests()
        agent = tiny_agent(feature_dim=18)
        trainer = PPOTrainer(env, agent, PPOConfig(rollout_length=8), rng=0)
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        trainer.train_updates(1)
        after = agent.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_stats_finite(self):
        env = env_for_tests()
        trainer = PPOTrainer(env, tiny_agent(feature_dim=18),
                             PPOConfig(rollout_length=8, num_epochs=2), rng=0)
        stats = trainer.train_updates(1)[0]
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy >= 0
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_negative_updates_raise(self):
        env = env_for_tests()
        trainer = PPOTrainer(env, tiny_agent(feature_dim=18), rng=0)
        with pytest.raises(ValueError):
            trainer.train_updates(-1)


@pytest.mark.slow
class TapeRolloutPPO(PPOTrainer):
    """The rollout's policy statistics through the autograd tape, as
    ``F.log_softmax`` of :meth:`ReadysAgent.forward` under ``no_grad``."""

    def _policy_stats(self, obs):
        with no_grad():
            logits, value = self.agent.forward(obs)
            logp = F.log_softmax(logits).data
        probs = np.exp(logp)
        probs = probs / probs.sum()
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(logp[action]), float(value.data[0])

    def collect_rollout(self):
        transitions, _ = super().collect_rollout()
        bootstrap = 0.0
        if not transitions[-1].done:
            with no_grad():
                bootstrap = float(self.agent.forward(self._obs)[1].data[0])
        return transitions, bootstrap


class TestArrayRollout:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rollout_matches_the_tape_bitwise(self, seed):
        """Actions, logπ, values, bootstrap and the sampler's generator
        state are byte-identical to the tape's over two rollouts and the
        update between them (episode ends included)."""
        def run(cls):
            env = env_for_tests(tiles=3)
            agent = default_agent(env, hidden_dim=16, rng=seed)
            trainer = cls(env, agent, PPOConfig(rollout_length=40, num_epochs=1), rng=seed)
            out = []
            for _ in range(2):
                transitions, bootstrap = trainer.collect_rollout()
                out.append((
                    [(t.action, np.float64(t.log_prob).tobytes(), np.float64(t.value).tobytes(),
                      t.reward, t.done) for t in transitions],
                    np.float64(bootstrap).tobytes(),
                    repr(trainer.rng.bit_generator.state),
                ))
                trainer.update(transitions, bootstrap)
            return out

        got, want = run(PPOTrainer), run(TapeRolloutPPO)
        assert any(t[4] for t in got[0][0] + got[1][0])  # an episode ended
        assert got == want

    def test_log_policy_matches_log_softmax(self):
        env = env_for_tests(tiles=3)
        agent = default_agent(env, hidden_dim=16, rng=3)
        obs = env.reset().obs
        logp, value = agent.log_policy(obs)
        with no_grad():
            logits, tape_value = agent.forward(obs)
            want = F.log_softmax(logits).data
        assert logp.tobytes() == want.tobytes()
        assert np.float64(value).tobytes() == tape_value.data[0].tobytes()


class TestPPOLearning:
    def test_ppo_improves_over_untrained(self):
        from repro.rl.trainer import default_agent, evaluate_agent

        env = SchedulingEnv(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        agent = default_agent(env, rng=0)
        untrained = np.mean(evaluate_agent(agent, env, episodes=3, rng=1))
        trainer = PPOTrainer(
            env, agent, PPOConfig(rollout_length=128, num_epochs=4,
                                  entropy_coef=1e-2), rng=0,
        )
        trainer.train_updates(60)
        trained = np.mean(evaluate_agent(agent, env, episodes=3, rng=1))
        assert trained < 0.8 * untrained
