"""Figure 3 — makespan improvement of READYS over HEFT and MCT.

Grid: kernel ∈ {Cholesky, LU, QR} × T ∈ {2, 4, 8} × σ ∈ {0, 0.2, 0.4, 0.6}
on the 2 CPU + 2 GPU platform.  For each cell, an agent is trained on the
instance (budget-scaled; see ``_harness``) and evaluated against HEFT
(static) and MCT (dynamic); the printed ratios are the paper's bar heights
("the larger the bars above 1, the better READYS performs").

Expected shape: vs-HEFT near (or below) 1 at σ=0 and increasing with σ;
vs-MCT roughly flat in σ for the larger graphs.
"""

import pytest

from repro.platforms import Platform
from repro.utils.tables import format_table

from benchmarks._harness import (
    SIGMAS,
    SWEEP_HEADERS,
    get_trained_agent,
    sigma_sweep_rows,
)

PLATFORM = Platform(2, 2)
KERNELS = ("cholesky", "lu", "qr")
TILE_SIZES = (2, 4, 8)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("tiles", TILE_SIZES)
def test_fig3_cell(benchmark, report, kernel, tiles):
    def run_cell():
        agent = get_trained_agent(kernel, tiles, PLATFORM, seed=0)
        rows = sigma_sweep_rows(agent, kernel, tiles, PLATFORM, seeds=5)
        return rows

    rows = benchmark.pedantic(run_cell, rounds=1, iterations=1)
    table = format_table(SWEEP_HEADERS, rows, floatfmt=".3f")
    report(f"fig3_{kernel}_T{tiles}_2CPU2GPU", table)

    # soft shape checks (documented in EXPERIMENTS.md):
    by_sigma = {row[0]: row for row in rows}
    assert all(row[3] > 0 for row in rows), "READYS must complete every cell"
    if tiles >= 4:
        # HEFT's static plan degrades with noise while READYS adapts, so the
        # improvement over HEFT must be larger at the top of the sweep than
        # at σ=0 (with evaluation-noise slack).  T=2 graphs are near-chains
        # where every scheduler coincides, so the trend is not meaningful
        # there — the paper likewise reports flat bars at T=2.
        assert by_sigma[SIGMAS[-1]][4] > 0.85 * by_sigma[0.0][4], (
            f"vs-HEFT improvement should grow with sigma: "
            f"{by_sigma[0.0][4]:.3f} -> {by_sigma[SIGMAS[-1]][4]:.3f}"
        )
