#!/usr/bin/env python
"""Anatomy of a schedule: Gantt charts and placement statistics.

Runs HEFT and MCT on the same Cholesky instance and dissects the executed
schedules: ASCII Gantt chart, per-processor utilisation, and which kernels
ended up on which resource type.  The placement table makes the
heterogeneity story visible at a glance — GEMM/SYRK concentrate on the GPUs
(≈26–29× faster there), POTRF spreads to the CPUs.

Run:  python examples/schedule_anatomy.py [--tiles 5] [--sigma 0.0]
"""

import argparse

from repro import (
    CHOLESKY_DURATIONS,
    GaussianNoise,
    NoNoise,
    Platform,
    Simulation,
    cholesky_dag,
    get,
)
from repro.eval.schedule_analysis import analyze_schedule, ascii_gantt, placement_table
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiles", type=int, default=5)
    parser.add_argument("--sigma", type=float, default=0.0)
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--gpus", type=int, default=2)
    args = parser.parse_args()

    graph = cholesky_dag(args.tiles)
    platform = Platform(args.cpus, args.gpus)
    noise = GaussianNoise(args.sigma) if args.sigma > 0 else NoNoise()

    for name in ("heft", "mct"):
        sim = Simulation(graph, platform, CHOLESKY_DURATIONS, noise, rng=0)
        makespan = get(name)(sim, rng=0)
        stats = analyze_schedule(sim)

        print(f"\n=== {name.upper()} on {graph.name} / {platform.name} "
              f"(σ={args.sigma}) ===")
        print(f"makespan {makespan:.1f} ms, "
              f"mean utilisation {stats.mean_utilization:.1%}")
        print(ascii_gantt(sim, width=70))
        print()
        print(format_table(
            ["kernel", "resource", "count"],
            placement_table(stats),
        ))
        util_rows = [
            [f"{platform.processors[p].type_name}{p}",
             stats.utilization[p], stats.idle_time[p]]
            for p in range(platform.num_processors)
        ]
        print()
        print(format_table(
            ["processor", "utilisation", "idle (ms)"], util_rows, floatfmt=".2f"
        ))


if __name__ == "__main__":
    main()
