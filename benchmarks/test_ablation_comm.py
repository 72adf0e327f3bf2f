"""Communication-cost ablation (extension: testing the paper's zero-comm assumption).

§III-A argues communication is negligible because tiles are sized so that
O(N²) transfers overlap O(N³) compute.  This bench quantifies the claim: a
uniform per-edge cross-processor delay is swept from 0 to ~2× the mean
kernel duration, and the makespans of HEFT (comm-oblivious plan), HEFT
(comm-aware plan) and MCT are compared.  Expected: rankings are stable for
delays ≪ kernel durations (validating the assumption) and comm-aware
planning pulls ahead as delays grow.
"""

import pytest

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform, UniformComm
from repro.schedulers import run_mct
from repro.schedulers.heft import heft_schedule
from repro.schedulers.static_executor import run_static
from repro.sim.engine import Simulation
from repro.utils.tables import format_table

GRAPH = cholesky_dag(6)
PLATFORM = Platform(2, 2)
DELAYS = (0.0, 2.0, 10.0, 40.0, 150.0)


def test_ablation_comm(benchmark, report):
    def run():
        rows = []
        for delay in DELAYS:
            comm = UniformComm(delay)
            plan_oblivious = heft_schedule(GRAPH, PLATFORM, CHOLESKY_DURATIONS)
            plan_aware = heft_schedule(GRAPH, PLATFORM, CHOLESKY_DURATIONS, comm=comm)

            sim = Simulation(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                             rng=0, comm=comm)
            mk_oblivious = run_static(sim, plan_oblivious, rng=0)
            sim = Simulation(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                             rng=0, comm=comm)
            mk_aware = run_static(sim, plan_aware, rng=0)
            sim = Simulation(GRAPH, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                             rng=0, comm=comm)
            mk_mct = run_mct(sim)
            rows.append([delay, mk_oblivious, mk_aware, mk_mct])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_comm_cholesky_T6",
        format_table(
            ["edge delay (ms)", "HEFT comm-oblivious", "HEFT comm-aware", "MCT"],
            rows, floatfmt=".1f",
        ),
    )
    # zero delay: the two HEFT plans coincide
    assert rows[0][1] == pytest.approx(rows[0][2])
    # makespans grow (weakly) with delay for every scheduler
    for col in (1, 2, 3):
        series = [r[col] for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    # small delays (≤2 ms against 70 ms mean kernels) barely move anything —
    # the paper's overlap assumption in numbers
    assert rows[1][1] <= rows[0][1] * 1.15
