"""Sufferage and FIFO baselines."""

import numpy as np

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS, DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.schedulers.base import CompletionEstimator
from repro.schedulers.sufferage import (
    FIFOScheduler,
    SufferageScheduler,
    run_fifo,
    run_sufferage,
)
from repro.sim.engine import Simulation

TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


def indep(types):
    return TaskGraph(len(types), [], types, ("A", "B", "C", "D"))


class TestSufferage:
    def test_high_sufferage_assigned_first(self):
        # type D: cpu 40, gpu 4 → sufferage 36; type A: cpu 10, gpu 1 → 9.
        g = indep([0, 3])
        sim = Simulation(g, Platform(1, 1), TABLE, NoNoise(), rng=0)
        pairs = SufferageScheduler().assign_batch(
            sim, np.array([0, 1]), CompletionEstimator(sim)
        )
        assert pairs[0][0] == 1  # the GEMM-like task claims its GPU first
        assert pairs[0][1] == 1  # on the GPU

    def test_single_processor_degenerates(self):
        g = indep([0, 1, 2])
        sim = Simulation(g, Platform(1, 0), TABLE, NoNoise(), rng=0)
        pairs = SufferageScheduler().assign_batch(
            sim, np.arange(3), CompletionEstimator(sim)
        )
        assert sorted(t for t, _ in pairs) == [0, 1, 2]
        assert all(p == 0 for _, p in pairs)

    def test_completes_cholesky(self):
        sim = Simulation(cholesky_dag(5), Platform(2, 2), CHOLESKY_DURATIONS,
                         NoNoise(), rng=0)
        mk = run_sufferage(sim)
        assert sim.done and mk > 0
        sim.check_trace()

    def test_competitive_with_minmin(self):
        """Sufferage should be in MCT/Min-Min territory, far from random."""
        from repro.schedulers import run_minmin, run_random

        g = cholesky_dag(6)
        plat = Platform(2, 2)
        mk_s = run_sufferage(Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0))
        mk_m = run_minmin(Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0))
        mk_r = run_random(Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0), rng=0)
        assert mk_s < mk_r
        assert mk_s < 2.0 * mk_m


class TestFIFO:
    def test_lowest_id_first(self):
        g = indep([3, 0])
        sim = Simulation(g, Platform(1, 1), TABLE, NoNoise(), rng=0)
        assert FIFOScheduler().select(sim, 0) == 0

    def test_completes_cholesky(self):
        sim = Simulation(cholesky_dag(5), Platform(2, 2), CHOLESKY_DURATIONS,
                         NoNoise(), rng=0)
        mk = run_fifo(sim, rng=0)
        assert sim.done and mk > 0
        sim.check_trace()

    def test_never_idles(self):
        sim = Simulation(indep([0]), Platform(2, 0), TABLE, NoNoise(), rng=0)
        assert FIFOScheduler().select(sim, 0) is not None

    def test_registry_entries(self):
        from repro.schedulers import get

        assert get("sufferage") is run_sufferage
        assert get("fifo") is run_fifo
