"""Property test: sparse and dense state modes are observationally identical.

The CSR window adjacency is an implementation detail; for any instance and
any point of any episode, the policy distribution computed from the sparse
observation must match the dense one to within float reassociation (≤ a few
ULPs — sparse matmul sums in a different order).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.durations import GENERIC_DURATIONS
from repro.graphs.random_dag import erdos_dag
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.sim.engine import Simulation
from repro.sim.state import PROC_FEATURE_DIM, StateBuilder, observation_feature_dim


def agent_for_generic():
    return ReadysAgent(
        AgentConfig(
            feature_dim=observation_feature_dim(4),
            proc_feature_dim=PROC_FEATURE_DIM,
            hidden_dim=16,
            num_gcn_layers=2,
        ),
        rng=0,
    )


@given(
    n=st.integers(2, 18),
    p=st.floats(0.05, 0.5),
    seed=st.integers(0, 10_000),
    window=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_sparse_matches_dense_at_every_decision(n, p, seed, window):
    graph = erdos_dag(n, p=p, rng=seed)
    agent = agent_for_generic()
    dense = StateBuilder(GENERIC_DURATIONS, window=window, sparse=False)
    sparse = StateBuilder(GENERIC_DURATIONS, window=window, sparse=True)
    sim = Simulation(graph, Platform(1, 2), GENERIC_DURATIONS, NoNoise(), rng=seed)
    rng = np.random.default_rng(seed)
    steps = 0
    while not sim.done and steps < 50:
        ready = sim.ready_tasks()
        idle = sim.idle_processors()
        if ready.size and idle.size:
            proc = int(idle[0])
            obs_d = dense.build(sim, proc, allow_pass=False)
            obs_s = sparse.build(sim, proc, allow_pass=False)
            np.testing.assert_array_equal(obs_d.features, obs_s.features)
            # sparse matmul reassociates the sums → ≤ a few ULPs difference
            np.testing.assert_allclose(
                agent.action_distribution(obs_d),
                agent.action_distribution(obs_s),
                atol=1e-12,
            )
            # take a random legal action to move the episode forward
            action = int(rng.integers(0, len(obs_d.ready_tasks)))
            sim.start(int(obs_d.ready_tasks[action]), proc)
        else:
            sim.advance()
        steps += 1
