"""The scheduling MDP environment."""

import re

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.graphs.random_dag import fork_join_dag
from repro.graphs.durations import GENERIC_DURATIONS
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.schedulers.heft import heft_makespan
from repro.sim.env import SchedulingEnv, run_policy
from repro.utils.seeding import as_generator


def make_env(tiles=4, cpus=2, gpus=2, sigma=0.0, window=2, rng=0, **kw):
    noise = GaussianNoise(sigma) if sigma > 0 else NoNoise()
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(cpus, gpus), CHOLESKY_DURATIONS,
        noise, window=window, rng=rng, **kw
    )


def random_policy(rng):
    rng = as_generator(rng)

    def policy(obs):
        return int(rng.integers(0, obs.num_actions))

    return policy


def first_task_policy(obs):
    return 0


class TestReset:
    def test_returns_observation(self):
        obs = make_env().reset().obs
        assert obs is not None
        assert len(obs.ready_tasks) == 1  # Cholesky has a single root

    def test_baseline_is_heft(self):
        env = make_env()
        env.reset().obs
        expected = heft_makespan(env._sample_graph(), env.platform, env.durations)
        assert env.baseline_makespan == expected

    def test_step_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            make_env().step(0)

    def test_graph_factory_called_per_episode(self):
        calls = []

        def factory(rng):
            calls.append(1)
            return cholesky_dag(3)

        env = SchedulingEnv(
            factory, Platform(1, 1), CHOLESKY_DURATIONS, NoNoise(), rng=0
        )
        env.reset().obs
        run_policy(env, first_task_policy)
        assert len(calls) >= 2

    def test_invalid_reward_mode(self):
        with pytest.raises(ValueError):
            make_env(reward_mode="sparse")


class TestStep:
    def test_action_out_of_range(self):
        env = make_env()
        obs = env.reset().obs
        with pytest.raises(ValueError):
            env.step(obs.num_actions)

    @pytest.mark.parametrize("action", [0.5, -0.5, np.float64(0.7)],
                             ids=["half", "negative-half", "np-float64"])
    def test_fractional_action_refused_before_any_change(self, action):
        env = make_env(tiles=3)
        env.reset()
        time, ready = env.sim.time, env.sim.ready.copy()
        with pytest.raises(ValueError, match=re.escape(f"action {action!r} is not an integer")):
            env.step(action)
        assert env.sim.time == time
        assert np.array_equal(env.sim.ready, ready)
        env.step(0)  # the pending decision is still open

    def test_numpy_integer_action_accepted(self):
        plain, numpy_int = make_env(tiles=3), make_env(tiles=3)
        plain.reset()
        numpy_int.reset()
        a = plain.step(0)
        b = numpy_int.step(np.int64(0))
        assert a.reward == b.reward and a.done == b.done
        assert np.array_equal(a.obs.features, b.obs.features)

    def test_episode_completes(self):
        env = make_env()
        info = run_policy(env, first_task_policy)
        assert info["makespan"] > 0
        assert info["heft_makespan"] == env.baseline_makespan
        env.sim.check_trace()

    def test_all_tasks_executed(self):
        env = make_env(tiles=5)
        run_policy(env, first_task_policy)
        assert env.sim.done
        assert env.sim.finished.all()

    def test_random_policy_completes(self):
        env = make_env(tiles=4, sigma=0.3)
        for seed in range(3):
            info = run_policy(env, random_policy(seed))
            assert info["makespan"] > 0
            env.sim.check_trace()

    def test_max_steps_guard(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="exceeded"):
            run_policy(env, first_task_policy, max_steps=2)


class TestPassAction:
    def test_pass_always_taking_policy_completes(self):
        """A policy that passes whenever legal must still terminate."""
        env = make_env(tiles=3)

        def passer(obs):
            return len(obs.ready_tasks) if obs.allow_pass else 0

        info = run_policy(env, passer)
        assert env.sim.done
        assert info["makespan"] > 0

    def test_pass_masked_when_last_resort(self):
        """At t=0 with a single idle processor nothing is running: ∅ illegal."""
        env = make_env(cpus=1, gpus=0)
        obs = env.reset().obs
        assert not obs.allow_pass

    def test_pass_allowed_with_other_idle_procs(self):
        env = make_env(cpus=2, gpus=2)
        obs = env.reset().obs
        # nothing running but three other idle processors remain
        assert obs.allow_pass

    def test_passed_processor_not_reoffered_same_instant(self):
        env = make_env(cpus=2, gpus=2)
        obs = env.reset().obs
        first_proc = obs.current_proc
        obs2, _, _, _ = env.step(len(obs.ready_tasks))  # pass
        assert obs2.current_proc != first_proc


class TestRewards:
    def test_terminal_mode_matches_paper_formula(self):
        env = make_env(reward_mode="terminal")
        obs = env.reset().obs
        rewards = []
        done = False
        while not done:
            obs, r, done, info = env.step(0)
            rewards.append(r)
        assert all(r == 0.0 for r in rewards[:-1])
        expected = (info["heft_makespan"] - info["makespan"]) / info["heft_makespan"]
        assert rewards[-1] == pytest.approx(expected)

    def test_dense_mode_telescopes_to_makespan_ratio(self):
        env = make_env(reward_mode="dense")
        obs = env.reset().obs
        total = 0.0
        done = False
        while not done:
            obs, r, done, info = env.step(0)
            total += r
        assert total == pytest.approx(-info["makespan"] / info["heft_makespan"])

    def test_dense_step_rewards_nonpositive(self):
        env = make_env(reward_mode="dense")
        obs = env.reset().obs
        done = False
        while not done:
            obs, r, done, _ = env.step(0)
            assert r <= 0.0

    def test_reward_positive_iff_beats_heft(self):
        env = make_env(reward_mode="terminal")
        info = run_policy(env, first_task_policy)
        r = info["reward"]
        assert (r > 0) == (info["makespan"] < info["heft_makespan"])


class TestDeterminism:
    def test_same_seed_same_episode(self):
        def run(seed):
            env = make_env(sigma=0.2, rng=seed)
            return run_policy(env, first_task_policy)["makespan"]

        assert run(5) == run(5)

    def test_different_seed_differs(self):
        def run(seed):
            env = make_env(sigma=0.3, rng=seed)
            return run_policy(env, first_task_policy)["makespan"]

        assert run(1) != run(2)


class TestOtherGraphFamilies:
    def test_fork_join(self):
        env = SchedulingEnv(
            fork_join_dag(6, stages=2, rng=0),
            Platform(2, 2),
            GENERIC_DURATIONS,
            NoNoise(),
            window=1,
            rng=0,
        )
        info = run_policy(env, first_task_policy)
        assert env.sim.done
        env.sim.check_trace()


class TestResetProtocol:
    """The Gym 0.26-style reset: typed (obs, info) with optional seeding."""

    def test_reset_returns_obs_info_pair(self):
        obs, info = make_env().reset()
        assert obs.num_actions >= 1
        assert info["num_tasks"] == cholesky_dag(4).num_tasks
        assert info["heft_makespan"] > 0

    def test_reset_result_fields(self):
        result = make_env().reset()
        assert result.obs is result[0]
        assert result.info is result[1]

    def test_reset_seed_reseeds_the_stream(self):
        env = make_env(sigma=0.2)
        env.reset(seed=3)
        a = [env.rng.random() for _ in range(4)]
        env.reset(seed=3)
        b = [env.rng.random() for _ in range(4)]
        assert a == b

    def test_reset_without_seed_keeps_the_stream(self):
        env = make_env(sigma=0.2, rng=0)
        env.reset()
        before = env.rng.random()
        env.reset()
        after = env.rng.random()
        assert before != after  # one persistent stream, not re-seeded
