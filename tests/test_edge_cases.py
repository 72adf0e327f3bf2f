"""Edge cases and failure injection across the stack.

Degenerate instances (single task, single processor, zero-duration draws,
huge noise) must flow through the whole pipeline without special-casing by
the caller.
"""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS, DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import GaussianNoise, NoiseModel, NoNoise
from repro.platforms.resources import Platform
from repro.schedulers import available, get
from repro.sim.engine import Simulation
from repro.sim.env import SchedulingEnv, run_policy
from repro.rl.trainer import default_agent, evaluate_agent


class ZeroNoise(NoiseModel):
    """Adversarial model: every task takes zero time."""

    sigma = 0.0

    def sample(self, expected, rng):
        return np.zeros_like(np.asarray(expected, dtype=np.float64))


class HugeNoise(NoiseModel):
    """Adversarial model: durations inflated 100×, huge variance."""

    sigma = 10.0

    def sample(self, expected, rng):
        expected = np.asarray(expected, dtype=np.float64)
        return expected * rng.uniform(1.0, 100.0, size=expected.shape)


SINGLE = TaskGraph(1, [], [0], ("A", "B", "C", "D"))
TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


class TestDegenerateInstances:
    @pytest.mark.parametrize("name", available())
    def test_single_task_single_proc(self, name):
        sim = Simulation(SINGLE, Platform(1, 0), TABLE, NoNoise(), rng=0)
        mk = get(name)(sim, rng=0)
        assert mk == pytest.approx(10.0)
        sim.check_trace()

    @pytest.mark.parametrize("name", ["heft", "mct"])
    def test_many_procs_few_tasks(self, name):
        g = TaskGraph(2, [(0, 1)], [0, 0], ("A", "B", "C", "D"))
        sim = Simulation(g, Platform(8, 8), TABLE, NoNoise(), rng=0)
        get(name)(sim, rng=0)
        sim.check_trace()

    def test_env_single_task(self):
        env = SchedulingEnv(SINGLE, Platform(1, 1), TABLE, NoNoise(), rng=0)
        info = run_policy(env, lambda obs: 0)
        assert info["makespan"] > 0

    def test_env_single_processor(self):
        env = SchedulingEnv(
            cholesky_dag(3), Platform(1, 0), CHOLESKY_DURATIONS, NoNoise(), rng=0
        )
        info = run_policy(env, lambda obs: 0)
        env.sim.check_trace()
        assert info["makespan"] > 0


class TestAdversarialNoise:
    def test_zero_duration_tasks_complete(self):
        """All-zero durations: events collapse to one instant; the simulator
        must still process every task exactly once."""
        sim = Simulation(cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS,
                         ZeroNoise(), rng=0)
        mk = get("mct")(sim, rng=0)
        assert mk == 0.0
        sim.check_trace()

    def test_zero_durations_through_env(self):
        env = SchedulingEnv(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS, ZeroNoise(), rng=0
        )
        info = run_policy(env, lambda obs: 0)
        assert info["makespan"] == 0.0

    def test_huge_noise_valid_traces(self):
        for name in ("heft", "mct"):
            sim = Simulation(cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS,
                             HugeNoise(), rng=1)
            get(name)(sim, rng=1)
            sim.check_trace()

    def test_huge_noise_through_agent(self):
        env = SchedulingEnv(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS, HugeNoise(), rng=0
        )
        agent = default_agent(env, rng=0)
        mks = evaluate_agent(agent, env, episodes=1, rng=0)
        assert mks[0] > 0
        env.sim.check_trace()

    def test_extreme_sigma_gaussian(self):
        sim = Simulation(cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS,
                         GaussianNoise(5.0), rng=0)
        get("mct")(sim, rng=0)
        sim.check_trace()


class TestRewardEdgeCases:
    def test_zero_makespan_terminal_reward_finite(self):
        """With all-zero durations the makespan is 0 and the terminal reward
        is (heft - 0)/heft = 1 — the best possible outcome, not a NaN."""
        env = SchedulingEnv(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS, ZeroNoise(),
            rng=0, reward_mode="terminal",
        )
        info = run_policy(env, lambda obs: 0)
        assert info["reward"] == pytest.approx(1.0)

    def test_dense_rewards_finite_under_huge_noise(self):
        env = SchedulingEnv(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS, HugeNoise(),
            rng=0, reward_mode="dense",
        )
        obs = env.reset().obs
        done = False
        while not done:
            obs, r, done, _ = env.step(0)
            assert np.isfinite(r)
