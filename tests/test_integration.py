"""Cross-module integration: the full pipeline on small instances.

These tests exercise graph generation → simulation → baselines → RL agent →
evaluation in one pass per scenario, mirroring how the benchmark harness
composes the library.
"""

import numpy as np
import pytest

from repro import (
    CHOLESKY_DURATIONS,
    GaussianNoise,
    LU_DURATIONS,
    NoNoise,
    Platform,
    QR_DURATIONS,
    SchedulingEnv,
    Simulation,
    cholesky_dag,
    compare_methods,
    get,
    lu_dag,
    qr_dag,
)
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer, default_agent, evaluate_agent

INSTANCES = [
    (cholesky_dag, CHOLESKY_DURATIONS),
    (lu_dag, LU_DURATIONS),
    (qr_dag, QR_DURATIONS),
]


class TestAllKernelsAllPlatforms:
    @pytest.mark.parametrize("builder,durations", INSTANCES)
    @pytest.mark.parametrize("cpus,gpus", [(4, 0), (2, 2), (0, 4)])
    def test_baselines_complete(self, builder, durations, cpus, gpus):
        graph = builder(4)
        platform = Platform(cpus, gpus)
        for name in ("heft", "mct"):
            sim = Simulation(graph, platform, durations, NoNoise(), rng=0)
            mk = get(name)(sim, rng=0)
            assert mk > 0
            sim.check_trace()

    @pytest.mark.parametrize("builder,durations", INSTANCES)
    def test_untrained_agent_completes(self, builder, durations):
        graph = builder(4)
        env = SchedulingEnv(
            graph, Platform(2, 2), durations, GaussianNoise(0.2), window=2, rng=0
        )
        agent = default_agent(env, rng=0)
        mks = evaluate_agent(agent, env, episodes=1, rng=0)
        assert mks[0] > 0
        env.sim.check_trace()


class TestHeftDominanceStructure:
    """Structural sanity: HEFT (full knowledge, σ=0) should not lose badly
    to naive baselines, and should beat random clearly."""

    def test_heft_beats_random(self):
        graph = cholesky_dag(6)
        platform = Platform(2, 2)
        result = compare_methods(
            graph, platform, CHOLESKY_DURATIONS, NoNoise(),
            baselines=("heft", "random"), seeds=3,
        )
        assert result.improvement("random", "heft") > 1.5

    def test_mct_within_factor_two_of_heft(self):
        graph = cholesky_dag(6)
        result = compare_methods(
            graph, Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            baselines=("heft", "mct"), seeds=1,
        )
        assert result.improvement("heft", "mct") > 0.5


class TestNoiseDegradesStatic:
    def test_heft_degrades_mct_robust(self):
        """The paper's central mechanism (Fig. 3): as σ grows, the static
        plan's achieved makespan inflates much faster than the dynamic
        scheduler's."""
        graph = cholesky_dag(6)
        platform = Platform(2, 2)

        def mean_mk(name, sigma, seeds=6):
            noise = GaussianNoise(sigma) if sigma else NoNoise()
            mks = []
            for s in range(seeds):
                sim = Simulation(graph, platform, CHOLESKY_DURATIONS, noise, rng=s)
                mks.append(get(name)(sim, rng=s))
            return np.mean(mks)

        heft_ratio = mean_mk("heft", 0.8) / mean_mk("heft", 0.0)
        mct_ratio = mean_mk("mct", 0.8) / mean_mk("mct", 0.0)
        assert heft_ratio > mct_ratio


@pytest.mark.slow
class TestEndToEndLearning:
    def test_trained_beats_random_scheduler(self):
        graph = cholesky_dag(4)
        platform = Platform(2, 2)
        env = SchedulingEnv(
            graph, platform, CHOLESKY_DURATIONS, NoNoise(), window=2, rng=0
        )
        trainer = ReadysTrainer(env, config=A2CConfig(entropy_coef=1e-2), rng=0)
        trainer.train_updates(450)
        trained = np.mean(evaluate_agent(trainer.agent, env, episodes=3, rng=1))
        random_mks = []
        for s in range(3):
            sim = Simulation(graph, platform, CHOLESKY_DURATIONS, NoNoise(), rng=s)
            random_mks.append(get("random")(sim, rng=s))
        assert trained < np.mean(random_mks)

    def test_transfer_to_larger_instance_completes_well(self):
        env4 = SchedulingEnv(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        trainer = ReadysTrainer(env4, config=A2CConfig(entropy_coef=1e-2), rng=0)
        trainer.train_updates(450)
        env8 = SchedulingEnv(
            cholesky_dag(8), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        transferred = np.mean(evaluate_agent(trainer.agent, env8, episodes=2, rng=1))
        untrained = np.mean(
            evaluate_agent(default_agent(env8, rng=5), env8, episodes=2, rng=1)
        )
        assert transferred < untrained
