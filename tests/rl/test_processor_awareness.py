"""Regression tests: the policy must be able to condition on the current
processor.

Early in development the per-task actor scores saw only the node embeddings,
so π(task | state) was identical whether a CPU or a GPU was asking — the
agent literally could not express "give the GEMM to the GPU".  The fix
broadcasts the current processor's type and the tasks' expected durations on
it into every node's features (Fig. 2's "enriched with the computing
resource state information").  These tests pin that property.
"""

import numpy as np

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.sim.engine import Simulation
from repro.sim.state import StateBuilder


def builder_and_sim(tiles=4):
    sim = Simulation(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0
    )
    return StateBuilder(CHOLESKY_DURATIONS, window=2), sim


class TestObservationCarriesProcessorIdentity:
    def test_features_differ_between_processor_types(self):
        builder, sim = builder_and_sim()
        obs_cpu = builder.build(sim, 0, allow_pass=True)
        obs_gpu = builder.build(sim, 2, allow_pass=True)
        assert not np.array_equal(obs_cpu.features, obs_gpu.features)

    def test_features_identical_between_same_type_processors(self):
        builder, sim = builder_and_sim()
        obs_a = builder.build(sim, 0, allow_pass=True)
        obs_b = builder.build(sim, 1, allow_pass=True)
        np.testing.assert_array_equal(obs_a.features, obs_b.features)

    def test_exp_on_current_column_reflects_type(self):
        builder, sim = builder_and_sim()
        obs_cpu = builder.build(sim, 0, allow_pass=True)
        obs_gpu = builder.build(sim, 2, allow_pass=True)
        # the root is a POTRF: CPU 16 ms vs GPU 9 ms (normalised)
        pos = obs_cpu.ready_positions[0]
        assert obs_cpu.features[pos, -3] > obs_gpu.features[pos, -3]


class TestPolicyConditionsOnProcessor:
    def test_distribution_differs_cpu_vs_gpu(self):
        """Even a randomly initialised agent must produce different π for a
        CPU vs a GPU decision point — otherwise the architecture could never
        learn type-aware placement."""
        builder, sim = builder_and_sim(tiles=6)
        # advance to a state with several ready tasks
        sim.start(int(sim.ready_tasks()[0]), 2)
        sim.advance()
        env_like_agent = default_agent_for(builder)
        obs_cpu = builder.build(sim, 0, allow_pass=True)
        obs_gpu = builder.build(sim, 2, allow_pass=True)
        p_cpu = env_like_agent.action_distribution(obs_cpu)
        p_gpu = env_like_agent.action_distribution(obs_gpu)
        assert p_cpu.shape == p_gpu.shape
        assert not np.allclose(p_cpu, p_gpu)


def default_agent_for(builder):
    from repro.rl.agent import AgentConfig, ReadysAgent
    from repro.sim.state import PROC_FEATURE_DIM, observation_feature_dim

    return ReadysAgent(
        AgentConfig(
            feature_dim=observation_feature_dim(4),
            proc_feature_dim=PROC_FEATURE_DIM,
            hidden_dim=32,
            num_gcn_layers=2,
        ),
        rng=0,
    )
