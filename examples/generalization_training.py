#!/usr/bin/env python
"""Training one agent on a *mixture* of problem sizes (beyond §V-F).

The paper trains on a single size and transfers zero-shot.  A natural
extension (its future-work "generalizations of transfer performances") is to
train on a distribution of sizes directly: every episode samples a fresh
Cholesky instance with T drawn from a set.  The resulting agent is then
evaluated on sizes inside and outside the training support and compared to
HEFT.

Run:  python examples/generalization_training.py
      [--train-tiles 3 4 5] [--eval-tiles 4 6 8] [--updates 800]
"""

import argparse

import numpy as np

from repro import (
    CHOLESKY_DURATIONS,
    GaussianNoise,
    NoNoise,
    Platform,
    SchedulingEnv,
    cholesky_dag,
    heft_makespan,
)
from repro.graphs.mixture import size_mixture
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer, evaluate_agent
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-tiles", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--eval-tiles", type=int, nargs="+", default=[4, 6, 8])
    parser.add_argument("--updates", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    platform = Platform(2, 2)
    env = SchedulingEnv(
        size_mixture("cholesky", args.train_tiles),
        platform, CHOLESKY_DURATIONS, GaussianNoise(0.2),
        window=2, rng=args.seed,
    )
    trainer = ReadysTrainer(env, config=A2CConfig(entropy_coef=1e-2), rng=args.seed)
    print(f"training on size mixture T ∈ {args.train_tiles}, "
          f"{args.updates} updates …")
    trainer.train_updates(args.updates)
    print(f"  {trainer.result.num_episodes} episodes")

    rows = []
    for tiles in args.eval_tiles:
        graph = cholesky_dag(tiles)
        eval_env = SchedulingEnv(
            graph, platform, CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=args.seed + 1,
        )
        mks = evaluate_agent(trainer.agent, eval_env, episodes=3, rng=args.seed)
        heft = heft_makespan(graph, platform, CHOLESKY_DURATIONS)
        in_support = "yes" if tiles in args.train_tiles else "no"
        rows.append([tiles, in_support, float(np.mean(mks)), heft,
                     heft / float(np.mean(mks))])
    print()
    print(format_table(
        ["T", "in training mix", "READYS", "HEFT", "vs HEFT"],
        rows, floatfmt=".3f",
    ))


if __name__ == "__main__":
    main()
