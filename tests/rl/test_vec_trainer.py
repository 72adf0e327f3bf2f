"""Vectorised trainer: K=1 legacy reproduction, K>1 mechanics, vec evaluation."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.rl.a2c import A2CConfig, A2CUpdater, Transition
from repro.rl.trainer import ReadysTrainer, default_agent, evaluate_agent
from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.utils.seeding import as_generator


def make_env(tiles=2, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=rng,
    )


def make_vec(k, tiles=2, seed=0):
    return VecSchedulingEnv.from_factory(
        lambda rng: make_env(tiles=tiles, rng=rng), k, seed=seed
    )


def legacy_training_run(env, agent, config, rng, num_updates):
    """The pre-vectorisation training loop, reproduced verbatim.

    One env, one ``sample_action`` per decision, manual reset on episode end,
    one ``updater.update`` per unroll — the exact RNG consumption order of the
    historical ``ReadysTrainer``.
    """
    updater = A2CUpdater(agent, config)
    makespans = []
    obs = env.reset().obs
    for _ in range(num_updates):
        transitions = []
        for _ in range(updater.config.unroll_length):
            action = agent.sample_action(obs, rng)
            next_obs, reward, done, info = env.step(action)
            transitions.append(Transition(obs, action, reward, done))
            if done:
                makespans.append(info["makespan"])
                obs = env.reset().obs
            else:
                obs = next_obs
        bootstrap = 0.0 if transitions[-1].done else agent.state_value(obs)
        updater.update(transitions, bootstrap)
    return makespans


class TestK1Reproduction:
    def test_vec_trainer_reproduces_legacy_loop_exactly(self):
        """VecSchedulingEnv(K=1) + new trainer ≡ the legacy single-env loop.

        Same env seed, same agent init, same sampling stream → identical
        episode makespans (exact float equality, not approx) and bit-identical
        final weights across several unroll+update cycles.
        """
        config = A2CConfig(unroll_length=12)
        num_updates = 6

        env_a = make_env(rng=17)
        agent_a = default_agent(env_a, rng=99)
        legacy_makespans = legacy_training_run(
            env_a, agent_a, config, as_generator(5), num_updates
        )

        env_b = make_env(rng=17)
        agent_b = default_agent(env_b, rng=99)
        trainer = ReadysTrainer(
            VecSchedulingEnv([env_b]), agent=agent_b, config=config, rng=5
        )
        trainer.train_updates(num_updates)

        assert legacy_makespans, "test needs at least one finished episode"
        assert trainer.result.episode_makespans == legacy_makespans
        for p_new, p_old in zip(agent_b.parameters(), agent_a.parameters()):
            np.testing.assert_array_equal(p_new.data, p_old.data)

    def test_plain_env_and_k1_vec_env_are_equivalent(self):
        """Passing a bare SchedulingEnv wraps it into the same K=1 loop."""
        config = A2CConfig(unroll_length=10)
        results = []
        for wrap in (False, True):
            env = make_env(rng=3)
            env = VecSchedulingEnv([env]) if wrap else env
            trainer = ReadysTrainer(env, config=config, rng=8)
            trainer.train_updates(4)
            results.append(trainer.result.episode_makespans)
        assert results[0] == results[1]


class TestMultiEnvTraining:
    def test_transitions_scale_with_k(self):
        trainer = ReadysTrainer(
            make_vec(3), config=A2CConfig(unroll_length=8), rng=0
        )
        unrolls, bootstraps = trainer._collect_unrolls()
        assert len(unrolls) == 3 and len(bootstraps) == 3
        assert all(len(u) == 8 for u in unrolls)

    def test_train_updates_with_k_envs(self):
        trainer = ReadysTrainer(
            make_vec(2), config=A2CConfig(unroll_length=10), rng=0
        )
        result = trainer.train_updates(5)
        assert len(result.update_stats) == 5
        # two tiles=2 members over 50 steps each finish several episodes
        assert result.num_episodes >= 2
        assert len(result.episode_makespans) == len(result.episode_rewards)
        assert all(m > 0 for m in result.episode_makespans)

    def test_train_episodes_reaches_target_with_k_envs(self):
        trainer = ReadysTrainer(
            make_vec(2), config=A2CConfig(unroll_length=10), rng=0
        )
        result = trainer.train_episodes(4)
        assert result.num_episodes >= 4

    def test_unroll_length_below_one_raises_clearly(self):
        trainer = ReadysTrainer(make_env(), rng=0)
        # A2CConfig refuses unroll_length < 1 at construction; force the
        # invalid state to check the trainer's own guard fires with a clear
        # message instead of an IndexError deep in collection.
        object.__setattr__(trainer.updater.config, "unroll_length", 0)
        with pytest.raises(ValueError, match="unroll_length"):
            trainer.train_updates(1)


class TestVecEvaluation:
    def test_vec_evaluation_returns_requested_episodes(self):
        agent = default_agent(make_env(), rng=0)
        makespans = evaluate_agent(agent, make_vec(3), episodes=5, rng=1)
        assert len(makespans) == 5
        assert all(m > 0 for m in makespans)

    def test_fewer_episodes_than_members(self):
        agent = default_agent(make_env(), rng=0)
        makespans = evaluate_agent(agent, make_vec(4), episodes=2, rng=1)
        assert len(makespans) == 2

    def test_greedy_vec_matches_sequential_greedy_per_member(self):
        """Greedy lockstep evaluation gives each member the same makespan as
        evaluating it alone (greedy actions don't depend on batching)."""
        agent = default_agent(make_env(), rng=0)
        vec = make_vec(3, seed=21)
        batched = evaluate_agent(agent, vec, episodes=3)
        singles = []
        for env in make_vec(3, seed=21).envs:
            singles.extend(evaluate_agent(agent, env, episodes=1))
        assert batched == pytest.approx(singles)

    def test_lockstep_evaluation_matches_the_per_member_step_loop(self):
        """Lockstep evaluation steps its members through one batched step
        but consumes every RNG exactly as stepping each member alone did:
        sampled actions, noisy durations, uneven quotas and a second call
        on the same envs all reproduce the per-member loop bitwise."""

        def per_member(agent, vec, episodes, rng):
            k = vec.num_envs
            quotas = [episodes // k + (1 if i < episodes % k else 0) for i in range(k)]
            makespans = [[] for _ in range(k)]
            active = [i for i in range(k) if quotas[i] > 0]
            obs = {i: vec.envs[i].reset().obs for i in active}
            while active:
                actions = agent.sample_actions([obs[i] for i in active], rng)
                still = []
                for i, action in zip(active, actions):
                    result = vec.envs[i].step(int(action))
                    if not result.done:
                        obs[i] = result.obs
                        still.append(i)
                        continue
                    makespans[i].append(result.info["makespan"])
                    if len(makespans[i]) < quotas[i]:
                        obs[i] = vec.envs[i].reset().obs
                        still.append(i)
                active = still
            return [m for member in makespans for m in member]

        def noisy_vec():
            return VecSchedulingEnv.from_factory(
                lambda rng: SchedulingEnv(
                    cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS,
                    GaussianNoise(0.3), window=2, rng=rng,
                ),
                3,
                seed=5,
            )

        agent = default_agent(make_env(), rng=0)
        vec, ref = noisy_vec(), noisy_vec()
        rng, ref_rng = as_generator(9), as_generator(9)
        for episodes in (5, 4):
            got = evaluate_agent(agent, vec, episodes=episodes, greedy=False, rng=rng)
            assert got == per_member(agent, ref, episodes, ref_rng)

    def test_sampled_vec_evaluation_runs(self):
        agent = default_agent(make_env(), rng=0)
        makespans = evaluate_agent(
            agent, make_vec(2), episodes=3, greedy=False, rng=4
        )
        assert len(makespans) == 3
