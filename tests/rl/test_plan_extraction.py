"""Agent → static plan extraction and the adaptivity gap."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.rl.plan_extraction import adaptivity_gap, extract_static_schedule
from repro.rl.trainer import default_agent
from repro.schedulers.static_executor import run_static
from repro.sim.engine import Simulation
from repro.sim.env import SchedulingEnv
from repro.utils.seeding import spawn_generators


def make_env(tiles=4, sigma=0.0, rng=0):
    noise = GaussianNoise(sigma) if sigma > 0 else NoNoise()
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, noise,
        window=2, rng=rng,
    )


class TestExtractStaticSchedule:
    def test_plan_is_valid(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        plan = extract_static_schedule(agent, env)
        plan.validate(cholesky_dag(4))
        assert plan.makespan > 0

    def test_every_task_assigned_once(self):
        env = make_env(tiles=5)
        agent = default_agent(env, rng=0)
        plan = extract_static_schedule(agent, env)
        assert (plan.proc_of >= 0).all()
        total = sum(len(order) for order in plan.proc_order)
        assert total == cholesky_dag(5).num_tasks

    def test_replay_at_sigma0_no_worse_than_plan(self):
        """With assignment and per-processor order fixed, the replay starts
        each task at max(pred finishes, processor free) — i.e. it removes the
        agent's deliberate ∅ idle gaps, so the achieved makespan can only be
        ≤ the plan's (each start time is monotone in its dependencies)."""
        env = make_env()
        agent = default_agent(env, rng=0)
        plan = extract_static_schedule(agent, env)
        sim = Simulation(
            cholesky_dag(4), env.platform, CHOLESKY_DURATIONS, NoNoise(), rng=0
        )
        achieved = run_static(sim, plan, rng=0)
        assert achieved <= plan.makespan + 1e-9

    def test_extraction_deterministic(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        a = extract_static_schedule(agent, env)
        b = extract_static_schedule(agent, env)
        np.testing.assert_array_equal(a.proc_of, b.proc_of)


class TestAdaptivityGap:
    def test_fields_present_and_consistent(self):
        env = make_env(sigma=0.4)
        agent = default_agent(env, rng=0)
        result = adaptivity_gap(agent, env, seeds=3, seed=0)
        assert set(result) == {
            "live_mean", "frozen_mean", "adaptivity_ratio", "plan_makespan"
        }
        assert result["adaptivity_ratio"] == pytest.approx(
            result["frozen_mean"] / result["live_mean"]
        )

    def test_deterministic_replay_no_worse_than_plan(self):
        """Without noise the frozen replay removes the agent's ∅ gaps, so
        its makespan is at most the plan's."""
        env = make_env(sigma=0.0)
        agent = default_agent(env, rng=0)
        result = adaptivity_gap(agent, env, seeds=2, seed=0)
        assert result["frozen_mean"] <= result["plan_makespan"] + 1e-9

    def test_replay_noise_does_not_depend_on_the_live_episode(self):
        """Each seed's replay draws from its own copy of the seed's
        generator: its makespan is that of a replay from a fresh copy,
        whatever the live episode drew before it."""
        env = make_env(tiles=3, sigma=0.4)
        agent = default_agent(env, rng=0)
        result = adaptivity_gap(agent, env, seeds=1, seed=1)
        plan = extract_static_schedule(agent, env)
        (rng,) = spawn_generators(1, 1)
        sim = Simulation(
            cholesky_dag(3), env.platform, CHOLESKY_DURATIONS, env.noise, rng=rng
        )
        assert result["frozen_mean"] == run_static(sim, plan, rng=rng)
