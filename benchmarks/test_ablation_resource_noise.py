"""Per-resource-type noise ablation (motivated by §III-A / [11]).

The paper's model gives every resource the same relative σ; Beaumont et
al. [11] (which the paper cites for duration variability) report that CPUs
are far noisier than GPUs.  This bench compares three worlds with the same
*average* uncertainty — uniform σ on both types, CPU-heavy, and GPU-heavy —
and reports how HEFT and MCT react.  Expected: CPU-heavy noise is almost
free on a 2C+2G Cholesky run (the GPUs do the accelerated work), while
GPU-heavy noise propagates straight into the makespan.
"""

import numpy as np

from repro.eval.compare import evaluate_baseline
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import Platform
from repro.platforms.noise import PerResourceNoise
from repro.utils.tables import format_table

GRAPH = cholesky_dag(6)
PLATFORM = Platform(2, 2)
WORLDS = [
    ("uniform", PerResourceNoise([0.4, 0.4])),
    ("cpu-heavy", PerResourceNoise([0.8, 0.0])),
    ("gpu-heavy", PerResourceNoise([0.0, 0.8])),
]


def test_ablation_per_resource_noise(benchmark, report):
    def run():
        rows = []
        for label, noise in WORLDS:
            heft = float(np.mean(evaluate_baseline(
                "heft", GRAPH, PLATFORM, CHOLESKY_DURATIONS, noise, seeds=10
            )))
            mct = float(np.mean(evaluate_baseline(
                "mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, noise, seeds=10
            )))
            rows.append([label, heft, mct])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_per_resource_noise_cholesky_T6",
        format_table(["noise world", "HEFT", "MCT"], rows, floatfmt=".1f"),
    )
    by = {r[0]: r for r in rows}
    # GPU-side uncertainty must hurt at least as much as CPU-side: on this
    # platform the accelerated kernels (the bulk of the work) run on GPUs.
    assert by["gpu-heavy"][1] >= by["cpu-heavy"][1] * 0.95
    assert by["gpu-heavy"][2] >= by["cpu-heavy"][2] * 0.95
