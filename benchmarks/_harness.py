"""Shared infrastructure for the per-figure benchmark harness.

Each ``benchmarks/test_fig*.py`` module regenerates one figure of the paper:
it trains the agents it needs (budget-scaled — see below), sweeps the
figure's parameters, and records a plain-text table with the same series the
paper plots.  Tables are printed in the pytest terminal summary and written
to ``benchmarks/results/``.

Budgets
-------
The paper trains ~20 minutes per (platform, kernel, size) on a laptop; a
benchmark run cannot afford 9+ such trainings, so training budgets are scaled
by the ``REPRO_BENCH_BUDGET`` environment variable:

* ``quick``   — ¼ of the default updates (fast smoke run);
* ``default`` — enough to reproduce the qualitative shape of every figure;
* ``full``    — 3× the default, closest to the paper's budget.

Trained agents are cached per (kernel, tiles, platform, σ_train, seed) inside
one pytest session, so e.g. Fig. 3 and Fig. 5 share their Cholesky agents.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.eval.compare import evaluate_baseline, evaluate_readys
from repro.graphs import duration_table_for, make_dag
from repro.platforms import Platform, make_noise
from repro.rl.a2c import A2CConfig
from repro.rl.agent import ReadysAgent
from repro.rl.trainer import ReadysTrainer
from repro.sim.env import SchedulingEnv

#: default A2C updates per training, by problem size (tiles)
_BASE_UPDATES = {2: 150, 3: 300, 4: 500, 5: 600, 6: 900, 8: 1600}

_SCALE = {"quick": 0.25, "default": 1.0, "full": 3.0}


def budget_scale() -> float:
    """Training-budget multiplier from ``REPRO_BENCH_BUDGET``."""
    name = os.environ.get("REPRO_BENCH_BUDGET", "default").lower()
    try:
        return _SCALE[name]
    except KeyError:
        raise KeyError(
            f"REPRO_BENCH_BUDGET must be one of {sorted(_SCALE)}, got {name!r}"
        ) from None


def updates_for(tiles: int) -> int:
    """Budget-scaled number of A2C updates for a T-tile training run."""
    base = _BASE_UPDATES.get(tiles, 800)
    return max(20, int(round(base * budget_scale())))


_AGENT_CACHE: Dict[Tuple, ReadysAgent] = {}

#: training noise level — agents are trained once under moderate noise and
#: evaluated across the σ sweep (a budget compromise vs the paper's
#: per-(instance, σ) trainings; documented in EXPERIMENTS.md)
TRAIN_SIGMA = 0.2

#: evaluation noise levels used by every figure sweep
SIGMAS = (0.0, 0.2, 0.4, 0.6)


def get_trained_agent(
    kernel: str,
    tiles: int,
    platform: Platform,
    seed: int = 0,
    window: int = 2,
) -> ReadysAgent:
    """Train (or fetch from cache) a READYS agent for one instance.

    Training tracks the best greedy-evaluation snapshot (A2C's last policy
    is not always its best) and returns the agent with those weights.
    """
    from repro.rl.callbacks import EvalCallback, train_with_callbacks

    key = (kernel, tiles, platform.num_cpus, platform.num_gpus, seed, window)
    if key in _AGENT_CACHE:
        return _AGENT_CACHE[key]
    graph = make_dag(kernel, tiles)
    durations = duration_table_for(kernel)
    env = SchedulingEnv(
        graph, platform, durations,
        make_noise("gaussian", TRAIN_SIGMA), window=window, rng=seed,
    )
    trainer = ReadysTrainer(
        env, config=A2CConfig(entropy_coef=1e-2), rng=seed
    )
    updates = updates_for(tiles)
    eval_env = SchedulingEnv(
        graph, platform, durations,
        make_noise("gaussian", TRAIN_SIGMA), window=window, rng=seed + 5000,
    )
    snapshot = EvalCallback(
        eval_env, every=max(25, updates // 12), episodes=2, rng=seed + 9000
    )
    train_with_callbacks(trainer, updates, [snapshot])
    if snapshot.best_state is not None:
        trainer.agent.load_state_dict(snapshot.best_state)
    _AGENT_CACHE[key] = trainer.agent
    return trainer.agent


def sigma_sweep_rows(
    agent: ReadysAgent,
    kernel: str,
    tiles: int,
    platform: Platform,
    sigmas: Sequence[float] = SIGMAS,
    seeds: int = 5,
    seed: int = 100,
    window: int = 2,
) -> List[List[float]]:
    """One figure row per σ: [σ, HEFT, MCT, READYS, improvement ratios].

    Improvements are mean-makespan ratios baseline/READYS — the quantity the
    paper's bar plots report (">1 ⇒ READYS wins").
    """
    graph = make_dag(kernel, tiles)
    durations = duration_table_for(kernel)
    rows: List[List[float]] = []
    for sigma in sigmas:
        noise = make_noise("gaussian" if sigma > 0 else "none", sigma)
        heft = float(np.mean(evaluate_baseline(
            "heft", graph, platform, durations, noise, seeds=seeds, seed=seed
        )))
        mct = float(np.mean(evaluate_baseline(
            "mct", graph, platform, durations, noise, seeds=seeds, seed=seed
        )))
        ready = float(np.mean(evaluate_readys(
            agent, graph, platform, durations, noise,
            window=window, seeds=seeds, seed=seed,
        )))
        rows.append([sigma, heft, mct, ready, heft / ready, mct / ready])
    return rows


SWEEP_HEADERS = ["sigma", "HEFT", "MCT", "READYS", "vs HEFT", "vs MCT"]
