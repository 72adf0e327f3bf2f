"""Property-based scheduler tests: every scheduler, on random DAGs, must
produce a valid execution (each task once, precedence respected, no processor
overlap) — the fundamental correctness contract of the whole system.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.durations import GENERIC_DURATIONS
from repro.graphs.random_dag import erdos_dag, fork_join_dag, layered_dag
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.schedulers import available, get
from repro.sim.engine import Simulation

ALL_SCHEDULERS = available()


@given(
    scheduler=st.sampled_from(ALL_SCHEDULERS),
    n=st.integers(2, 25),
    p=st.floats(0.05, 0.5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_valid_execution_on_random_dags(scheduler, n, p, seed):
    graph = erdos_dag(n, p=p, rng=seed)
    sim = Simulation(graph, Platform(2, 2), GENERIC_DURATIONS, NoNoise(), rng=seed)
    runner = get(scheduler)
    mk = runner(sim, rng=seed)
    assert sim.done
    assert mk > 0
    sim.check_trace()


@given(
    scheduler=st.sampled_from(ALL_SCHEDULERS),
    sigma=st.floats(0.05, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_valid_execution_under_noise(scheduler, sigma, seed):
    graph = layered_dag(3, 4, density=0.5, rng=seed)
    sim = Simulation(
        graph, Platform(1, 2), GENERIC_DURATIONS, GaussianNoise(sigma), rng=seed
    )
    get(scheduler)(sim, rng=seed)
    sim.check_trace()


@given(
    scheduler=st.sampled_from(ALL_SCHEDULERS),
    cpus=st.integers(0, 3),
    gpus=st.integers(0, 3),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_every_platform_shape(scheduler, cpus, gpus, seed):
    if cpus + gpus == 0:
        cpus = 1
    graph = fork_join_dag(4, stages=2, rng=seed)
    sim = Simulation(graph, Platform(cpus, gpus), GENERIC_DURATIONS, NoNoise(), rng=seed)
    get(scheduler)(sim, rng=seed)
    sim.check_trace()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_makespan_lower_bound_work_conservation(seed):
    """No scheduler can beat total-work / num-processors on identical procs."""
    graph = erdos_dag(15, p=0.1, rng=seed)
    plat = Platform(0, 2)
    work = GENERIC_DURATIONS.expected_vector(graph.task_types)[:, 1].sum()
    for name in ("mct", "heft", "greedy-eft"):
        sim = Simulation(graph, plat, GENERIC_DURATIONS, NoNoise(), rng=seed)
        mk = get(name)(sim, rng=seed)
        assert mk >= work / plat.num_processors - 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_makespan_lower_bound_critical_path(seed):
    """No schedule can beat the best-case critical path."""
    graph = layered_dag(4, 3, density=0.4, rng=seed)
    best = GENERIC_DURATIONS.expected_vector(graph.task_types).min(axis=1)
    bound = graph.critical_path_length(best)
    for name in ("mct", "heft"):
        sim = Simulation(graph, Platform(2, 2), GENERIC_DURATIONS, NoNoise(), rng=seed)
        mk = get(name)(sim, rng=seed)
        assert mk >= bound - 1e-9


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="heft"):
        get("round-robin")


def test_registry_lists_all_expected():
    assert {
        "heft", "mct", "random", "greedy-eft", "rank-priority",
        "min-min", "max-min", "sufferage", "fifo", "peft",
        "online-heft", "online-mct", "online-sufferage",
    } == set(available())
