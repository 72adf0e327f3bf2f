"""MCT — minimum-completion-time dynamic scheduler."""

import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS, DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.schedulers.base import CompletionEstimator
from repro.schedulers.mct import run_mct
from repro.sim.engine import Simulation

TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


def sim_for(graph, cpus=1, gpus=1, noise=None, rng=0):
    return Simulation(graph, Platform(cpus, gpus), TABLE, noise or NoNoise(), rng=rng)


class TestMCTBehaviour:
    def test_single_task_goes_to_fastest(self):
        g = TaskGraph(1, [], [0], ("A", "B", "C", "D"))
        sim = sim_for(g)
        run_mct(sim)
        assert sim.trace[0].proc == 1  # GPU (1 vs 10)

    def test_batch_spreads_when_queue_builds(self):
        # 4 identical type-A tasks, CPU=10 GPU=1: first 3 go GPU (1,2,3 est),
        # 4th compares GPU est 4 vs CPU 10 → still GPU.
        g = TaskGraph(4, [], [0, 0, 0, 0], ("A", "B", "C", "D"))
        sim = sim_for(g)
        run_mct(sim)
        procs = [e.proc for e in sim.trace]
        assert procs.count(1) == 4

    def test_spills_to_cpu_when_gpu_queue_long(self):
        # type A: CPU 10, GPU 1.  With 12 tasks, the 11th sees GPU est 11 > CPU 10.
        g = TaskGraph(12, [], [0] * 12, ("A", "B", "C", "D"))
        sim = sim_for(g)
        run_mct(sim)
        procs = [e.proc for e in sim.trace]
        assert procs.count(0) >= 1
        assert procs.count(1) >= 10

    def test_completes_cholesky(self):
        sim = Simulation(cholesky_dag(6), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0)
        mk = run_mct(sim)
        assert sim.done
        sim.check_trace()
        assert mk > 0

    def test_deterministic_without_noise(self):
        def run():
            sim = Simulation(cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0)
            return run_mct(sim)

        assert run() == run()

    def test_noise_changes_makespan(self):
        outcomes = set()
        for seed in range(4):
            sim = Simulation(
                cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS,
                GaussianNoise(0.4), rng=seed,
            )
            outcomes.add(run_mct(sim))
        assert len(outcomes) > 1

    def test_reasonable_vs_serial(self):
        """MCT must beat running everything serially on one CPU."""
        g = cholesky_dag(5)
        sim = Simulation(g, Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0)
        mk = run_mct(sim)
        serial = CHOLESKY_DURATIONS.expected_vector(g.task_types)[:, 0].sum()
        assert mk < serial / 2


class TestCompletionEstimator:
    def test_idle_available_now(self):
        sim = sim_for(TaskGraph(2, [], [0, 0], ("A", "B", "C", "D")))
        est = CompletionEstimator(sim)
        assert est.available_at(0) == 0.0

    def test_completion_estimate_adds_duration(self):
        sim = sim_for(TaskGraph(2, [], [0, 0], ("A", "B", "C", "D")))
        est = CompletionEstimator(sim)
        assert est.completion_estimate(0, 0) == pytest.approx(10.0)
        assert est.completion_estimate(0, 1) == pytest.approx(1.0)

    def test_commit_extends_queue(self):
        sim = sim_for(TaskGraph(3, [], [0, 0, 0], ("A", "B", "C", "D")))
        est = CompletionEstimator(sim)
        est.commit(0, 1)
        assert est.completion_estimate(1, 1) == pytest.approx(2.0)

    def test_release_shrinks_queue(self):
        sim = sim_for(TaskGraph(3, [], [0, 0, 0], ("A", "B", "C", "D")))
        est = CompletionEstimator(sim)
        est.commit(0, 1)
        est.release(0, 1)
        assert est.completion_estimate(1, 1) == pytest.approx(1.0)

    def test_accounts_running_remaining(self):
        sim = sim_for(TaskGraph(2, [], [0, 0], ("A", "B", "C", "D")))
        sim.start(0, 0)  # CPU, 10ms expected
        est = CompletionEstimator(sim)
        assert est.available_at(0) == pytest.approx(10.0)
        assert est.completion_estimate(1, 0) == pytest.approx(20.0)

    def test_reanchors_to_clock_after_drift(self):
        sim = Simulation(
            TaskGraph(2, [(0, 1)], [0, 0], ("A", "B", "C", "D")),
            Platform(1, 0), TABLE, GaussianNoise(1.0), rng=5,
        )
        sim.start(0, 0)
        sim.advance()  # actual duration drifted from the 10ms estimate
        est = CompletionEstimator(sim)
        assert est.available_at(0) == pytest.approx(sim.time)
