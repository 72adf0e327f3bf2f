"""Multi-seed training with best-agent selection.

A2C is seed-sensitive (the paper averages evaluations over 5 seeds; our
window ablation showed a single seed can collapse outright).  The standard
operational remedy is to train k independent seeds and keep the best
evaluation performer.  This helper wraps that loop around
:class:`~repro.rl.trainer.ReadysTrainer` with best-snapshot tracking per
seed, returning the winning agent plus the per-seed scores for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.rl.a2c import A2CConfig
from repro.rl.agent import ReadysAgent
from repro.rl.callbacks import EvalCallback, train_with_callbacks
from repro.rl.trainer import ReadysTrainer, evaluate_agent
from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.utils.seeding import SeedLike, spawn_generators

EnvFactory = Callable[[np.random.Generator], SchedulingEnv]


@dataclass
class SeedResult:
    """Outcome of one training seed."""

    seed_index: int
    eval_makespan: float
    episodes: int


@dataclass
class MultiSeedResult:
    """Winner and per-seed scores of a multi-seed run."""

    agent: ReadysAgent
    best_seed: int
    seeds: List[SeedResult]

    @property
    def best_makespan(self) -> float:
        return self.seeds[self.best_seed].eval_makespan


def train_multi_seed(
    env_factory: EnvFactory,
    num_seeds: int = 3,
    updates: int = 500,
    config: Optional[A2CConfig] = None,
    eval_episodes: int = 3,
    snapshot_every: int = 50,
    seed: SeedLike = 0,
) -> MultiSeedResult:
    """Train ``num_seeds`` agents independently; return the best one.

    ``env_factory(rng)`` must build a fresh environment per seed (envs carry
    RNG state).  Each seed trains with best-snapshot tracking and is scored
    by greedy evaluation on its own freshly built environment.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if updates < 1:
        raise ValueError("updates must be >= 1")
    streams = spawn_generators(seed, 3 * num_seeds)
    results: List[SeedResult] = []
    best_agent: Optional[ReadysAgent] = None
    best_score = float("inf")
    best_index = -1
    for i in range(num_seeds):
        train_rng, eval_rng, score_rng = streams[3 * i: 3 * i + 3]
        env = env_factory(train_rng)
        trainer = ReadysTrainer(env, config=config, rng=train_rng)
        snapshot = EvalCallback(
            env_factory(eval_rng),
            every=max(1, min(snapshot_every, updates)),
            episodes=2,
            rng=eval_rng,
        )
        train_with_callbacks(trainer, updates, [snapshot])
        if snapshot.best_state is not None:
            trainer.agent.load_state_dict(snapshot.best_state)
        # one env per scoring episode, evaluated in lockstep with batched
        # greedy inference (one network pass per decision wave)
        score_env = VecSchedulingEnv.from_factory(
            env_factory, eval_episodes, seed=score_rng
        )
        score = float(np.mean(
            evaluate_agent(trainer.agent, score_env,
                           episodes=eval_episodes, rng=score_rng)
        ))
        results.append(SeedResult(i, score, trainer.result.num_episodes))
        if score < best_score:
            best_score = score
            best_agent = trainer.agent
            best_index = i
    assert best_agent is not None
    return MultiSeedResult(agent=best_agent, best_seed=best_index, seeds=results)
