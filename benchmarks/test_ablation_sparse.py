"""CSR window adjacency — per-decision inference scaling.

The paper's windows average ~45 tasks.  Every observation carries its window
adjacency as CSR, so one GCN layer costs O(nnz·h) rather than O(m²·h).  This
bench measures the per-decision inference time of one greedy episode as the
instance grows (Cholesky T up to 14, windows of several hundred tasks).
"""

import numpy as np

from repro.eval.profiling import inference_timing
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform
from repro.rl.trainer import default_agent
from repro.sim.env import SchedulingEnv
from repro.utils.tables import format_table

TILE_SIZES = (6, 10, 14)


def test_ablation_sparse_state(benchmark, report):
    platform = Platform(2, 2)

    def run():
        rows = []
        agent = None
        for tiles in TILE_SIZES:
            env = SchedulingEnv(
                cholesky_dag(tiles), platform, CHOLESKY_DURATIONS,
                NoNoise(), window=2, rng=0,
            )
            if agent is None:
                agent = default_agent(env, rng=0)
            samples = inference_timing(agent, env, episodes=1, rng=0)
            sizes = [s for s, _ in samples]
            times = np.array([t for _, t in samples])
            rows.append([
                tiles,
                float(np.mean(sizes)),
                int(np.max(sizes)),
                float(np.mean(times)) * 1e3,
                float(np.percentile(times, 95)) * 1e3,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_sparse_state",
        format_table(
            ["T", "mean window", "max window", "mean ms", "p95 ms"],
            rows, floatfmt=".3f",
        ),
    )
    # one decision stays in the millisecond range at every size
    assert all(r[3] < 50 for r in rows)
