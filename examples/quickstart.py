#!/usr/bin/env python
"""Quickstart: train READYS on a tiled Cholesky DAG and compare with HEFT/MCT.

This is the paper's core experiment in miniature (§V-E, Fig. 3): a Cholesky
factorization of a 4×4-tile matrix scheduled on a node with 2 CPUs + 2 GPUs,
with task durations perturbed by Gaussian noise.

Run:  python examples/quickstart.py  [--tiles 4] [--sigma 0.2] [--updates 600]
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
    compare_methods,
    heft_makespan,
)
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiles", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.2)
    parser.add_argument("--updates", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph = cholesky_dag(args.tiles)
    platform = Platform(2, 2)
    noise = GaussianNoise(args.sigma) if args.sigma > 0 else NoNoise()

    print(f"instance: {graph.name} ({graph.num_tasks} tasks) on {platform.name}")
    print(f"HEFT plan makespan (σ=0): "
          f"{heft_makespan(graph, platform, CHOLESKY_DURATIONS):.1f} ms")

    # -- train ---------------------------------------------------------- #
    env = SchedulingEnv(
        graph, platform, CHOLESKY_DURATIONS, noise, window=2, rng=args.seed
    )
    trainer = ReadysTrainer(env, config=A2CConfig(entropy_coef=1e-2), rng=args.seed)
    print(f"training {args.updates} A2C updates …")
    trainer.train_updates(args.updates)
    makespans = trainer.result.episode_makespans
    print(f"  {len(makespans)} episodes; "
          f"last-10 training makespan {np.mean(makespans[-10:]):.1f} ms")

    # -- evaluate against the baselines ---------------------------------- #
    result = compare_methods(
        graph, platform, CHOLESKY_DURATIONS, noise,
        baselines=("heft", "mct", "random"),
        agent=trainer.agent, seeds=5, seed=args.seed + 1,
    )
    rows = [
        [name, result.mean(name), result.improvement(name, "readys")]
        for name in ("heft", "mct", "random")
    ]
    rows.append(["readys", result.mean("readys"), 1.0])
    print()
    print(format_table(
        ["scheduler", "mean makespan (ms)", "improvement of READYS"],
        rows, floatfmt=".3f",
    ))


if __name__ == "__main__":
    main()
