"""Micro-benchmarks of the hot paths (statistical, real pytest-benchmark runs).

Unlike the figure harnesses (one pedantic round each), these measure the
library's primitive costs with proper repetition: DAG generation, HEFT
planning, one simulator episode, one state extraction, one agent forward
pass, and one A2C update.  Useful as a performance-regression net.
"""

import numpy as np
import pytest

from repro import obs
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer, default_agent
from repro.schedulers import heft_schedule, run_mct
from repro.sim.engine import Simulation
from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.sim.state import StateBuilder
from repro.utils.seeding import spawn_generators

PLATFORM = Platform(2, 2)


def _vec_env(num_envs: int, tiles: int = 6) -> VecSchedulingEnv:
    return VecSchedulingEnv(
        [
            SchedulingEnv(
                cholesky_dag(tiles), PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                window=2, rng=rng,
            )
            for rng in spawn_generators(0, num_envs)
        ]
    )


def test_perf_cholesky_generation(benchmark):
    graph = benchmark(cholesky_dag, 10)
    assert graph.num_tasks == 220


def test_perf_heft_planning_t10(benchmark):
    graph = cholesky_dag(10)
    schedule = benchmark(heft_schedule, graph, PLATFORM, CHOLESKY_DURATIONS)
    assert schedule.makespan > 0


def test_perf_mct_episode_t8(benchmark):
    graph = cholesky_dag(8)

    def run():
        sim = Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
        return run_mct(sim)

    assert benchmark(run) > 0


def test_perf_state_extraction(benchmark):
    graph = cholesky_dag(8)
    sim = Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
    builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
    obs = benchmark(builder.build, sim, 0, True)
    assert obs.num_nodes >= 1


def test_perf_agent_forward(benchmark):
    env = SchedulingEnv(
        cholesky_dag(8), PLATFORM, CHOLESKY_DURATIONS, NoNoise(), window=2, rng=0
    )
    agent = default_agent(env, rng=0)
    obs = env.reset().obs
    probs = benchmark(agent.action_distribution, obs)
    assert probs.sum() == pytest.approx(1.0)


def test_perf_a2c_update(benchmark):
    env = SchedulingEnv(
        cholesky_dag(4), PLATFORM, CHOLESKY_DURATIONS, NoNoise(), window=2, rng=0
    )
    trainer = ReadysTrainer(env, config=A2CConfig(unroll_length=20), rng=0)
    unrolls, bootstraps = trainer._collect_unrolls()
    transitions, bootstrap = unrolls[0], bootstraps[0]

    def update():
        return trainer.updater.update(transitions, bootstrap)

    stats = benchmark.pedantic(update, rounds=5, iterations=1)
    assert np.isfinite(stats.policy_loss)


# ---------------------------------------------------------------------- #
# vectorised rollout stack (batched forward / VecEnv unroll+update)
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("num_envs", [1, 4, 8])
def test_perf_batched_forward(benchmark, num_envs):
    """One greedy decision wave over K lockstep observations.

    K = 1 routes through the single-observation forward (the bit-exact
    legacy path); K > 1 is one block-diagonal GCN pass.
    """
    env = _vec_env(num_envs)
    agent = default_agent(env, rng=0)
    obs = env.reset().obs
    agent.greedy_actions(obs)  # warm the per-graph caches
    actions = benchmark(agent.greedy_actions, obs)
    assert actions.shape == (num_envs,)


@pytest.mark.parametrize("num_envs", [1, 4, 8])
def test_perf_vec_unroll(benchmark, num_envs):
    """The rollout phase alone — collect ``unroll_length`` transitions per
    member under the sampling policy (no gradient work).  Per-transition
    throughput is ``num_envs * unroll_length / time``; compare across the K
    parametrisation for the batched-forward speed-up.
    """
    trainer = ReadysTrainer(
        _vec_env(num_envs), config=A2CConfig(unroll_length=20), rng=0
    )
    trainer.train_updates(2)  # warm caches, JIT-free steady state

    unrolls, _ = benchmark.pedantic(
        trainer._collect_unrolls, rounds=5, iterations=1
    )
    assert len(unrolls) == num_envs


@pytest.mark.parametrize("num_envs", [1, 4, 8])
def test_perf_vec_update(benchmark, num_envs):
    """The update phase alone — one batched A2C gradient step on a fixed
    batch of pre-collected unrolls (forward + backward + clip + Adam).
    ``benchmarks/test_bench_train.py`` measures the same phase with the
    compiled training step for the speed-up ratio.
    """
    trainer = ReadysTrainer(
        _vec_env(num_envs), config=A2CConfig(unroll_length=20), rng=0
    )
    trainer.train_updates(2)  # warm caches, JIT-free steady state
    unrolls, bootstraps = trainer._collect_unrolls()

    def update():
        return trainer.updater.update_batch(unrolls, bootstraps)

    stats = benchmark.pedantic(update, rounds=5, iterations=1)
    assert np.isfinite(stats.policy_loss)


# ---------------------------------------------------------------------- #
# observability overhead (repro.obs)
#
# The obs layer's contract: with tracing disabled, instrumentation on a hot
# path costs one global load and one attribute read.  The pair of episode
# benchmarks below measures the end-to-end cost either way; the guard
# benchmark isolates the disabled-path primitive.  Run with
# ``pytest benchmarks/test_microbench.py -k obs`` and compare the off/on
# rows; the README documents a representative number.
# ---------------------------------------------------------------------- #


def _mct_episode() -> float:
    sim = Simulation(cholesky_dag(6), PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
    return run_mct(sim)


def test_perf_obs_guard_disabled(benchmark):
    """The raw off-path guard: one enabled check + a no-op end(None)."""
    tracer = obs.TRACER
    assert not tracer.enabled

    def guarded():
        handle = tracer.begin("decision") if tracer.enabled else None
        if handle is not None:
            tracer.end(handle)
        return handle

    assert benchmark(guarded) is None


def test_perf_mct_episode_obs_off(benchmark):
    """Baseline episode with all observability off (the shipping default)."""
    assert not obs.TRACER.enabled and not obs.METRICS.enabled
    assert benchmark(_mct_episode) > 0


def test_perf_mct_episode_obs_on(benchmark, tmp_path):
    """Same episode, fully observed (spans to JSONL + counters/timers)."""
    obs.start_trace(str(tmp_path / "bench.jsonl"))
    obs.METRICS.enabled = True
    obs.METRICS.reset()
    try:
        assert benchmark(_mct_episode) > 0
    finally:
        obs.stop_trace()
        obs.METRICS.enabled = False
        obs.METRICS.reset()
