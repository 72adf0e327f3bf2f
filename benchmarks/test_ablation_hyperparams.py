"""Hyper-parameter ablation (paper §V-D).

The paper random/grid-searches the window w ∈ [0, 2], the number of GCN
layers g ∈ [1, 3], the unroll length ∈ {20, 40, 60, 80}, and the entropy
coefficient ∈ {1e-3, 5e-3, 1e-2}.  This bench retrains a Cholesky T=4 agent
per setting (budget-scaled) and reports the greedy-evaluation makespan, so
the sensitivity of each knob can be compared against the defaults.
"""

import numpy as np

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import GaussianNoise, Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer, evaluate_agent
from repro.schedulers import heft_makespan
from repro.sim.env import SchedulingEnv
from repro.utils.tables import format_table

from benchmarks._harness import TRAIN_SIGMA, updates_for

PLATFORM = Platform(2, 2)
TILES = 4


def _train_and_eval(window=2, gcn_layers=None, unroll=40, entropy=1e-2, seed=0):
    from repro.rl.callbacks import EvalCallback, train_with_callbacks
    from repro.rl.trainer import default_agent

    graph = cholesky_dag(TILES)
    env = SchedulingEnv(
        graph, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(TRAIN_SIGMA),
        window=window, rng=seed,
    )
    config = A2CConfig(entropy_coef=entropy, unroll_length=unroll)
    agent = default_agent(env, num_gcn_layers=gcn_layers, rng=seed)
    trainer = ReadysTrainer(env, agent=agent, config=config, rng=seed)
    updates = updates_for(TILES)
    # track the best greedy snapshot — A2C's final policy occasionally
    # collapses on a single seed, which would corrupt the ablation readout
    snapshot = EvalCallback(
        SchedulingEnv(graph, PLATFORM, CHOLESKY_DURATIONS,
                      GaussianNoise(TRAIN_SIGMA), window=window, rng=seed + 5000),
        every=max(25, updates // 12), episodes=2, rng=seed + 9000,
    )
    train_with_callbacks(trainer, updates, [snapshot])
    if snapshot.best_state is not None:
        trainer.agent.load_state_dict(snapshot.best_state)
    eval_env = SchedulingEnv(
        graph, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(TRAIN_SIGMA),
        window=window, rng=seed + 1000,
    )
    return float(np.mean(evaluate_agent(trainer.agent, eval_env, episodes=5, rng=seed)))


def test_ablation_window(benchmark, report):
    """w ∈ {0, 1, 2}: larger windows give the GCN more lookahead."""

    def run():
        return [[w, _train_and_eval(window=w)] for w in (0, 1, 2)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heft = heft_makespan(cholesky_dag(TILES), PLATFORM, CHOLESKY_DURATIONS)
    rows = [[w, mk, heft / mk] for w, mk in rows]
    report(
        "ablation_window_cholesky_T4",
        format_table(["window w", "READYS makespan", "vs HEFT(σ=0)"], rows, floatfmt=".3f"),
    )
    assert all(mk > 0 for _, mk, _ in rows)


def test_ablation_gcn_layers(benchmark, report):
    """g ∈ {1, 2, 3} at w=2 (paper: g = w suffices)."""

    def run():
        return [[g, _train_and_eval(window=2, gcn_layers=g)] for g in (1, 2, 3)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_gcn_layers_cholesky_T4",
        format_table(["GCN layers g", "READYS makespan"], rows, floatfmt=".3f"),
    )
    assert all(mk > 0 for _, mk in rows)


def test_ablation_entropy(benchmark, report):
    """β ∈ {1e-3, 5e-3, 1e-2} — the paper's entropy grid."""

    def run():
        return [[b, _train_and_eval(entropy=b)] for b in (1e-3, 5e-3, 1e-2)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_entropy_cholesky_T4",
        format_table(["entropy beta", "READYS makespan"], rows, floatfmt=".4f"),
    )
    assert all(mk > 0 for _, mk in rows)


def test_ablation_unroll(benchmark, report):
    """unroll ∈ {20, 40, 80} — subset of the paper's grid."""

    def run():
        return [[u, _train_and_eval(unroll=u)] for u in (20, 40, 80)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_unroll_cholesky_T4",
        format_table(["unroll length", "READYS makespan"], rows, floatfmt=".3f"),
    )
    assert all(mk > 0 for _, mk in rows)
