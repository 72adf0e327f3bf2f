"""Trainer loop, evaluation, and end-to-end learning on a tiny instance."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer, TrainResult, default_agent, evaluate_agent
from repro.schedulers.heft import heft_makespan
from repro.sim.env import SchedulingEnv
from repro.sim.state import observation_feature_dim


def make_env(tiles=3, window=2, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=window, rng=rng,
    )


class TestDefaultAgent:
    def test_feature_dim_matches_env(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        assert agent.config.feature_dim == observation_feature_dim(4)

    def test_gcn_layers_default_to_window(self):
        env = make_env(window=3)
        assert default_agent(env, rng=0).config.num_gcn_layers == 3

    def test_window_zero_gets_one_layer(self):
        env = make_env(window=0)
        assert default_agent(env, rng=0).config.num_gcn_layers == 1

    def test_explicit_layers_respected(self):
        env = make_env(window=2)
        agent = default_agent(env, num_gcn_layers=1, rng=0)
        assert agent.config.num_gcn_layers == 1


class TestTrainerMechanics:
    def test_train_updates_counts(self):
        trainer = ReadysTrainer(make_env(), config=A2CConfig(unroll_length=10), rng=0)
        result = trainer.train_updates(3)
        assert len(result.update_stats) == 3

    def test_negative_updates_raise(self):
        with pytest.raises(ValueError):
            ReadysTrainer(make_env(), rng=0).train_updates(-1)

    def test_train_episodes_reaches_target(self):
        trainer = ReadysTrainer(make_env(), config=A2CConfig(unroll_length=10), rng=0)
        result = trainer.train_episodes(4)
        assert result.num_episodes >= 4

    def test_episode_bookkeeping_consistent(self):
        trainer = ReadysTrainer(make_env(), config=A2CConfig(unroll_length=16), rng=0)
        result = trainer.train_updates(10)
        assert len(result.episode_makespans) == len(result.episode_rewards)
        assert all(m > 0 for m in result.episode_makespans)

    def test_result_accumulates_across_calls(self):
        trainer = ReadysTrainer(make_env(), config=A2CConfig(unroll_length=10), rng=0)
        trainer.train_updates(2)
        first = len(trainer.result.update_stats)
        trainer.train_updates(2)
        assert len(trainer.result.update_stats) == first + 2

    def test_best_makespan(self):
        result = TrainResult(episode_makespans=[5.0, 3.0, 4.0])
        assert result.best_makespan() == pytest.approx(3.0)
        assert TrainResult().best_makespan() == float("inf")

    def test_deterministic_training(self):
        def run():
            trainer = ReadysTrainer(
                make_env(rng=0), config=A2CConfig(unroll_length=10), rng=0
            )
            trainer.train_updates(5)
            return trainer.result.episode_makespans

        assert run() == run()


class TestEvaluateAgent:
    def test_returns_requested_episodes(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        mks = evaluate_agent(agent, env, episodes=3, rng=0)
        assert len(mks) == 3
        assert all(m > 0 for m in mks)

    def test_greedy_deterministic_modulo_env(self):
        env = make_env(rng=0)
        agent = default_agent(env, rng=0)
        a = evaluate_agent(agent, env, episodes=1, rng=1)
        env2 = make_env(rng=0)
        b = evaluate_agent(agent, env2, episodes=1, rng=1)
        assert a == b

    def test_sampled_mode(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        mks = evaluate_agent(agent, env, episodes=2, greedy=False, rng=0)
        assert len(mks) == 2

    def test_invalid_episode_count(self):
        env = make_env()
        with pytest.raises(ValueError):
            evaluate_agent(default_agent(env, rng=0), env, episodes=0)


@pytest.mark.slow
class TestLearning:
    def test_training_improves_over_untrained(self):
        """After a modest budget the policy must clearly beat its own
        untrained self on Cholesky T=4 / 2CPU+2GPU (σ=0)."""
        env = SchedulingEnv(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        trainer = ReadysTrainer(
            env, config=A2CConfig(entropy_coef=1e-2), rng=0
        )
        untrained = np.mean(evaluate_agent(trainer.agent, env, episodes=3, rng=1))
        trainer.train_updates(450)
        trained = np.mean(evaluate_agent(trainer.agent, env, episodes=3, rng=1))
        assert trained < 0.7 * untrained

    def test_trained_agent_in_heft_ballpark(self):
        env = SchedulingEnv(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        trainer = ReadysTrainer(env, config=A2CConfig(entropy_coef=1e-2), rng=0)
        trainer.train_updates(600)
        trained = np.mean(evaluate_agent(trainer.agent, env, episodes=3, rng=1))
        heft = heft_makespan(cholesky_dag(4), env.platform, CHOLESKY_DURATIONS)
        assert trained < 1.5 * heft
