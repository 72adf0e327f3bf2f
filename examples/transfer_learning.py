#!/usr/bin/env python
"""Transfer learning (paper §V-F, Figs. 4–6).

Train one READYS agent on a *small* Cholesky instance, checkpoint it, then
apply it zero-shot to larger instances and compare against HEFT and MCT at
several noise levels.  The size-normalised state features are what make this
possible: nothing in the network depends on the number of tasks.

Run:  python examples/transfer_learning.py [--train-tiles 6]
      [--test-tiles 10 12] [--updates 800] [--cpus 2] [--gpus 2]
"""

import argparse
import os
import tempfile

import numpy as np

from repro import (
    CHOLESKY_DURATIONS,
    GaussianNoise,
    NoNoise,
    Platform,
    SchedulingEnv,
    cholesky_dag,
)
from repro.eval.compare import evaluate_baseline, evaluate_readys
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.rl.transfer import load_agent, save_agent
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-tiles", type=int, default=6)
    parser.add_argument("--test-tiles", type=int, nargs="+", default=[10, 12])
    parser.add_argument("--updates", type=int, default=800)
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--gpus", type=int, default=2)
    parser.add_argument("--sigmas", type=float, nargs="+", default=[0.0, 0.2, 0.4])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    platform = Platform(args.cpus, args.gpus)

    # -- train on the small instance -------------------------------------- #
    train_graph = cholesky_dag(args.train_tiles)
    env = SchedulingEnv(
        train_graph, platform, CHOLESKY_DURATIONS, GaussianNoise(0.2),
        window=2, rng=args.seed,
    )
    trainer = ReadysTrainer(env, config=A2CConfig(entropy_coef=1e-2), rng=args.seed)
    print(f"training on {train_graph.name} ({train_graph.num_tasks} tasks), "
          f"{args.updates} updates …")
    trainer.train_updates(args.updates)

    # checkpoint / reload round trip, as a real deployment would do
    ckpt = os.path.join(tempfile.gettempdir(), "readys_transfer.npz")
    save_agent(trainer.agent, ckpt, trained_on=train_graph.name)
    agent = load_agent(ckpt)
    print(f"checkpoint written to {ckpt}")

    # -- zero-shot evaluation on larger instances -------------------------- #
    for tiles in args.test_tiles:
        graph = cholesky_dag(tiles)
        print(f"\n=== transfer to {graph.name} "
              f"({graph.num_tasks} tasks) on {platform.name} ===")
        rows = []
        for sigma in args.sigmas:
            noise = GaussianNoise(sigma) if sigma > 0 else NoNoise()
            heft = np.mean(evaluate_baseline(
                "heft", graph, platform, CHOLESKY_DURATIONS, noise, seeds=5
            ))
            mct = np.mean(evaluate_baseline(
                "mct", graph, platform, CHOLESKY_DURATIONS, noise, seeds=5
            ))
            ready = np.mean(evaluate_readys(
                agent, graph, platform, CHOLESKY_DURATIONS, noise, seeds=5
            ))
            rows.append([sigma, heft, mct, ready, heft / ready, mct / ready])
        print(format_table(
            ["sigma", "HEFT", "MCT", "READYS", "vs HEFT", "vs MCT"],
            rows, floatfmt=".3f",
        ))
    print(
        "\nReading: columns 'vs *' are makespan improvements (>1 = READYS"
        "\nwins).  Expect ≈1 or slightly below against HEFT at σ=0 and a"
        "\ngrowing advantage as σ rises (paper Figs. 4–6)."
    )


if __name__ == "__main__":
    main()
