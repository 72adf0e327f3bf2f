"""Multi-seed comparison harness."""

import pytest

from repro.eval.compare import (
    ComparisonResult,
    compare_methods,
    evaluate_baseline,
    evaluate_readys,
)
from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.rl.trainer import default_agent
from repro.sim.env import SchedulingEnv


GRAPH = cholesky_dag(4)
PLATFORM = Platform(2, 2)


class TestEvaluateBaseline:
    def test_deterministic_collapses_to_one_run(self):
        mks = evaluate_baseline("heft", GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), seeds=5)
        assert len(mks) == 1

    def test_noisy_runs_all_seeds(self):
        mks = evaluate_baseline(
            "mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(0.3), seeds=4
        )
        assert len(mks) == 4
        assert len(set(mks)) > 1

    def test_seeded_reproducible(self):
        kw = dict(noise=GaussianNoise(0.3), seeds=3, seed=7)
        a = evaluate_baseline("mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, **kw)
        b = evaluate_baseline("mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, **kw)
        assert a == b

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError):
            evaluate_baseline("sjf", GRAPH, PLATFORM, CHOLESKY_DURATIONS)


class TestEvaluateReadys:
    def test_runs_untrained_agent(self):
        env = SchedulingEnv(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
        agent = default_agent(env, rng=0)
        mks = evaluate_readys(agent, GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), seeds=3)
        assert len(mks) >= 1
        assert all(m > 0 for m in mks)

    def test_noisy_multi_seed(self):
        env = SchedulingEnv(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
        agent = default_agent(env, rng=0)
        mks = evaluate_readys(
            agent, GRAPH, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(0.3), seeds=3
        )
        assert len(mks) == 3


class TestCompareMethods:
    def test_includes_all_baselines(self):
        result = compare_methods(
            GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
            baselines=("heft", "mct", "random"), seeds=2,
        )
        assert set(result.methods()) == {"heft", "mct", "random"}

    def test_with_agent(self):
        env = SchedulingEnv(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(), rng=0)
        agent = default_agent(env, rng=0)
        result = compare_methods(
            GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
            baselines=("heft",), agent=agent, seeds=2,
        )
        assert "readys" in result.methods()

    def test_improvement_ratio(self):
        result = ComparisonResult("x", {"heft": [10.0], "readys": [5.0]})
        assert result.improvement("heft", "readys") == pytest.approx(2.0)

    def test_label_defaults_to_graph_name(self):
        result = compare_methods(GRAPH, PLATFORM, CHOLESKY_DURATIONS, seeds=1)
        assert result.label == GRAPH.name
