"""Dense vs sparse window adjacency — inference scaling ablation.

The paper's windows average ~45 tasks, where a dense (m×m) adjacency is
cheap.  This bench measures per-decision inference time with dense and CSR
adjacencies as the instance grows (Cholesky T up to 14, windows of several
hundred tasks), quantifying when the sparse path starts paying off.
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
            per_mode = {}
            sizes = []
            for sparse in (False, True):
                env = SchedulingEnv(
                    cholesky_dag(tiles), platform, CHOLESKY_DURATIONS,
                    NoNoise(), window=2, rng=0, sparse_state=sparse,
                )
                if agent is None:
                    agent = default_agent(env, rng=0)
                samples = inference_timing(agent, env, episodes=1, rng=0)
                per_mode[sparse] = float(np.mean([t for _, t in samples]))
                sizes = [s for s, _ in samples]
            rows.append([
                tiles,
                int(np.max(sizes)),
                per_mode[False] * 1e3,
                per_mode[True] * 1e3,
                per_mode[False] / per_mode[True],
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_sparse_state",
        format_table(
            ["T", "max window", "dense ms", "sparse ms", "dense/sparse"],
            rows, floatfmt=".3f",
        ),
    )
    # both paths stay in the millisecond range at every size
    assert all(r[2] < 50 and r[3] < 50 for r in rows)
