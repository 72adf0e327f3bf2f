"""Extended baseline comparison beyond the paper's HEFT/MCT pair.

All seven baseline schedulers on each kernel family (T = 6, 2 CPU + 2 GPU),
deterministic and noisy.  Establishes where HEFT/MCT sit inside the wider
heuristic landscape — and hence what beating them means.
"""

import numpy as np
import pytest

from repro.eval.compare import evaluate_baseline
from repro.graphs import duration_table_for, make_dag
from repro.platforms import Platform, make_noise
from repro.schedulers import available
from repro.utils.tables import format_table

PLATFORM = Platform(2, 2)
TILES = 6
SCHEDULERS = available()


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_ablation_all_baselines(benchmark, report, sigma):
    def run():
        noise = make_noise("gaussian" if sigma else "none", sigma)
        rows = []
        for kernel in ("cholesky", "lu", "qr"):
            graph = make_dag(kernel, TILES)
            durations = duration_table_for(kernel)
            row = [kernel]
            for name in SCHEDULERS:
                mks = evaluate_baseline(
                    name, graph, PLATFORM, durations, noise, seeds=5, seed=0
                )
                row.append(float(np.mean(mks)))
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"ablation_baselines_T{TILES}_sigma{sigma}",
        format_table(["kernel"] + SCHEDULERS, rows, floatfmt=".1f"),
    )

    idx = {name: i + 1 for i, name in enumerate(SCHEDULERS)}
    for row in rows:
        # random is never the best scheduler
        assert row[idx["random"]] >= min(row[1:])
        # HEFT and MCT must beat random on every kernel
        assert row[idx["heft"]] < row[idx["random"]]
        assert row[idx["mct"]] < row[idx["random"]]
