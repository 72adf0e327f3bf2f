"""Simulator semantics with a communication model attached."""

import pytest

from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.comm import NoComm, UniformComm
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.schedulers import run_mct
from repro.sim.engine import Simulation

TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


def chain2():
    return TaskGraph(2, [(0, 1)], [0, 0], ("A", "B", "C", "D"))


class TestCommSemantics:
    def test_cross_processor_edge_stalls(self):
        sim = Simulation(chain2(), Platform(2, 0), TABLE, NoNoise(), rng=0,
                         comm=UniformComm(5.0))
        sim.start(0, 0)
        sim.advance()  # t=10
        sim.start(1, 1)  # data arrives at 15
        sim.advance()
        assert sim.makespan == pytest.approx(25.0)  # 10 + 5 + 10
        sim.check_trace()

    def test_same_processor_edge_free(self):
        sim = Simulation(chain2(), Platform(2, 0), TABLE, NoNoise(), rng=0,
                         comm=UniformComm(5.0))
        sim.start(0, 0)
        sim.advance()
        sim.start(1, 0)  # same processor: no transfer
        sim.advance()
        assert sim.makespan == pytest.approx(20.0)

    def test_max_over_predecessors(self):
        # diamond: 0 → {1, 2} → 3; 3 placed with one local, one remote pred
        g = TaskGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [0] * 4, ("A", "B", "C", "D"))
        sim = Simulation(g, Platform(2, 0), TABLE, NoNoise(), rng=0,
                         comm=UniformComm(7.0))
        sim.start(0, 0)
        sim.advance()  # t=10
        sim.start(1, 0)
        sim.start(2, 1)  # remote; data for 3 arrives at its finish + 7
        sim.advance()  # 2 finishes at 10(arrive 17)+10=27? no: start(2,1) begins at 10+7=17
        # task 2 on proc 1 waits for task 0's output: starts at 17, ends 27
        # task 1 on proc 0 starts at 10, ends 20
        while not sim.done:
            for t in sim.ready_tasks():
                sim.start(t, 0)
            if not sim.done:
                sim.advance()
        # task 3 on proc 0: needs task2 output from proc1: 27 + 7 = 34
        assert sim.makespan == pytest.approx(44.0)
        sim.check_trace()

    def test_no_comm_matches_default(self):
        g = chain2()
        sim_default = Simulation(g, Platform(1, 1), TABLE, NoNoise(), rng=0)
        sim_explicit = Simulation(g, Platform(1, 1), TABLE, NoNoise(), rng=0,
                                  comm=NoComm())
        run_mct(sim_default)
        run_mct(sim_explicit)
        assert sim_default.makespan == sim_explicit.makespan

    def test_executed_on_recorded(self):
        sim = Simulation(chain2(), Platform(2, 0), TABLE, NoNoise(), rng=0)
        sim.start(0, 1)
        sim.advance()
        assert sim.executed_on[0] == 1


class TestSchedulersUnderComm:
    @pytest.mark.parametrize("delay", [0.0, 2.0, 10.0])
    def test_mct_valid_trace(self, delay):
        from repro.graphs.cholesky import cholesky_dag
        from repro.graphs.durations import CHOLESKY_DURATIONS

        sim = Simulation(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            rng=0, comm=UniformComm(delay),
        )
        run_mct(sim)
        sim.check_trace()

    def test_makespan_monotone_in_delay(self):
        from repro.graphs.cholesky import cholesky_dag
        from repro.graphs.durations import CHOLESKY_DURATIONS

        makespans = []
        for delay in (0.0, 5.0, 20.0):
            sim = Simulation(
                cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
                rng=0, comm=UniformComm(delay),
            )
            makespans.append(run_mct(sim))
        assert makespans == sorted(makespans)

    def test_heft_comm_aware_plan_beats_oblivious_under_comm(self):
        """Planning with the comm model should not be worse than planning
        without it, when both are executed under communication delays."""
        from repro.graphs.cholesky import cholesky_dag
        from repro.graphs.durations import CHOLESKY_DURATIONS
        from repro.schedulers.heft import heft_schedule
        from repro.schedulers.static_executor import run_static

        g = cholesky_dag(5)
        plat = Platform(2, 2)
        comm = UniformComm(8.0)
        aware = heft_schedule(g, plat, CHOLESKY_DURATIONS, comm=comm)
        oblivious = heft_schedule(g, plat, CHOLESKY_DURATIONS)
        sim_a = Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0, comm=comm)
        sim_o = Simulation(g, plat, CHOLESKY_DURATIONS, NoNoise(), rng=0, comm=comm)
        mk_aware = run_static(sim_a, aware, rng=0)
        mk_obliv = run_static(sim_o, oblivious, rng=0)
        assert mk_aware <= mk_obliv * 1.05  # small slack: EFT is a heuristic
