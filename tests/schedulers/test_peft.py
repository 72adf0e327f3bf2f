"""PEFT — optimistic cost table and predicted-EFT placement."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS, DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.schedulers.heft import heft_schedule
from repro.schedulers.peft import optimistic_cost_table, peft_schedule, run_peft
from repro.sim.engine import Simulation

TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


def chain3():
    return TaskGraph(3, [(0, 1), (1, 2)], [0, 1, 2], ("A", "B", "C", "D"))


class TestOptimisticCostTable:
    def test_exit_rows_zero(self):
        g = cholesky_dag(4)
        oct_table = optimistic_cost_table(g, Platform(2, 2), CHOLESKY_DURATIONS)
        for sink in g.sinks():
            np.testing.assert_allclose(oct_table[sink], 0.0)

    def test_chain_values(self):
        """On a chain with zero comm, OCT(t, ·) = best-case remaining work."""
        g = chain3()
        oct_table = optimistic_cost_table(g, Platform(1, 1), TABLE)
        # task 2 (exit): 0; task 1: min-cost of task 2 = 3 (GPU);
        # task 0: min over p' of (OCT(1,p') + w(1,p')) = 0+2... +3? OCT(1)=3
        np.testing.assert_allclose(oct_table[2], [0.0, 0.0])
        np.testing.assert_allclose(oct_table[1], [3.0, 3.0])
        np.testing.assert_allclose(oct_table[0], [5.0, 5.0])

    def test_nonnegative_and_monotone_upstream(self):
        g = cholesky_dag(5)
        oct_table = optimistic_cost_table(g, Platform(2, 2), CHOLESKY_DURATIONS)
        assert (oct_table >= 0).all()
        root = g.roots()[0]
        assert oct_table[root].min() >= oct_table.max(axis=1).mean() * 0  # sanity
        assert oct_table[root].max() == oct_table.max()


class TestPeftSchedule:
    def test_plan_valid(self):
        for tiles in (2, 4, 6):
            g = cholesky_dag(tiles)
            plan = peft_schedule(g, Platform(2, 2), CHOLESKY_DURATIONS)
            plan.validate(g)

    def test_every_task_placed(self):
        g = cholesky_dag(5)
        plan = peft_schedule(g, Platform(2, 2), CHOLESKY_DURATIONS)
        assert (plan.proc_of >= 0).all()

    def test_deterministic(self):
        g = cholesky_dag(5)
        a = peft_schedule(g, Platform(2, 2), CHOLESKY_DURATIONS)
        b = peft_schedule(g, Platform(2, 2), CHOLESKY_DURATIONS)
        np.testing.assert_array_equal(a.proc_of, b.proc_of)

    def test_chain_prefers_gpu(self):
        plan = peft_schedule(chain3(), Platform(1, 1), TABLE)
        assert plan.makespan == pytest.approx(6.0)
        assert (plan.proc_of == 1).all()

    def test_quality_comparable_to_heft(self):
        """PEFT should land within ~15% of HEFT on the factorization DAGs
        (often better; that is its selling point)."""
        for tiles in (4, 6, 8):
            g = cholesky_dag(tiles)
            plat = Platform(2, 2)
            peft_mk = peft_schedule(g, plat, CHOLESKY_DURATIONS).makespan
            heft_mk = heft_schedule(g, plat, CHOLESKY_DURATIONS).makespan
            assert peft_mk <= 1.15 * heft_mk


class TestRunPeft:
    def test_deterministic_execution_matches_plan(self):
        g = cholesky_dag(5)
        plat = Platform(2, 2)
        sim = Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0)
        achieved = run_peft(sim, rng=0)
        planned = peft_schedule(g, plat, CHOLESKY_DURATIONS).makespan
        assert achieved == pytest.approx(planned)
        sim.check_trace()

    def test_registered(self):
        from repro.schedulers import get

        assert get("peft") is run_peft
