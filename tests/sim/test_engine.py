"""Discrete-event simulator mechanics and invariants."""

import numpy as np
import pytest

from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import GaussianNoise, NoNoise
from repro.platforms.resources import Platform
from repro.sim.engine import ScheduledTask, Simulation


def chain3() -> TaskGraph:
    return TaskGraph(3, [(0, 1), (1, 2)], [0, 1, 2], ("A", "B", "C", "D"))


def diamond() -> TaskGraph:
    return TaskGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [0, 1, 1, 0], ("A", "B", "C", "D"))


TABLE = DurationTable(("A", "B", "C", "D"), cpu=(10.0, 20.0, 30.0, 40.0), gpu=(1.0, 2.0, 3.0, 4.0))


def make_sim(graph=None, cpus=1, gpus=1, noise=None, rng=0):
    return Simulation(
        graph if graph is not None else chain3(),
        Platform(cpus, gpus),
        TABLE,
        noise if noise is not None else NoNoise(),
        rng=rng,
    )


class TestInitialState:
    def test_roots_ready(self):
        sim = make_sim(diamond())
        np.testing.assert_array_equal(sim.ready_tasks(), [0])

    def test_all_processors_idle(self):
        sim = make_sim(cpus=2, gpus=2)
        assert sim.idle_processors().size == 4
        assert sim.busy_processors().size == 0

    def test_not_done(self):
        assert not make_sim().done

    def test_makespan_undefined_before_done(self):
        with pytest.raises(RuntimeError):
            make_sim().makespan

    def test_kernel_count_check(self):
        small = DurationTable(("A",), cpu=(1.0,), gpu=(1.0,))
        with pytest.raises(ValueError):
            Simulation(chain3(), Platform(1, 1), small)


class TestStart:
    def test_start_moves_task_to_running(self):
        sim = make_sim()
        sim.start(0, 0)
        np.testing.assert_array_equal(sim.running_tasks(), [0])
        assert sim.ready_tasks().size == 0
        assert sim.proc_task[0] == 0

    def test_deterministic_duration(self):
        sim = make_sim()
        actual = sim.start(0, 0)  # task type A on CPU: 10
        assert actual == 10.0

    def test_duration_depends_on_resource(self):
        sim = make_sim()
        actual = sim.start(0, 1)  # GPU: 1
        assert actual == 1.0

    def test_start_unready_task_raises(self):
        sim = make_sim()
        with pytest.raises(RuntimeError, match="not ready"):
            sim.start(1, 0)

    def test_start_on_busy_processor_raises(self):
        sim = make_sim(diamond(), cpus=2, gpus=0)
        sim.start(0, 0)
        sim.advance()
        sim.start(1, 0)
        with pytest.raises(RuntimeError, match="busy"):
            sim.start(2, 0)

    def test_out_of_range(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.start(99, 0)
        with pytest.raises(ValueError):
            sim.start(0, 99)


class TestAdvance:
    def test_advance_completes_task(self):
        sim = make_sim()
        sim.start(0, 0)
        freed = sim.advance()
        np.testing.assert_array_equal(freed, [0])
        assert sim.finished[0]
        assert sim.time == pytest.approx(10.0)

    def test_advance_releases_successors(self):
        sim = make_sim()
        sim.start(0, 0)
        sim.advance()
        np.testing.assert_array_equal(sim.ready_tasks(), [1])

    def test_advance_without_running_raises(self):
        with pytest.raises(RuntimeError):
            make_sim().advance()

    def test_simultaneous_completions(self):
        g = TaskGraph(2, [], [0, 0], ("A", "B", "C", "D"))
        sim = Simulation(g, Platform(2, 0), TABLE, NoNoise(), rng=0)
        sim.start(0, 0)
        sim.start(1, 1)
        freed = sim.advance()
        assert freed.size == 2
        assert sim.done

    def test_join_waits_for_all_predecessors(self):
        sim = make_sim(diamond(), cpus=2, gpus=0)
        sim.start(0, 0)
        sim.advance()
        sim.start(1, 0)  # type B on CPU: 20
        sim.start(2, 1)
        sim.advance()  # both finish at t=30
        assert sim.finished[1] and sim.finished[2]
        np.testing.assert_array_equal(sim.ready_tasks(), [3])

    def test_partial_join_not_ready(self):
        sim = make_sim(diamond(), cpus=1, gpus=1)
        sim.start(0, 0)
        sim.advance()
        sim.start(1, 0)  # CPU: 20
        sim.start(2, 1)  # GPU: 2 -> finishes first
        sim.advance()
        assert sim.finished[2] and not sim.finished[1]
        assert sim.ready_tasks().size == 0  # 3 still waits on 1


class TestFullEpisodes:
    def test_chain_on_one_cpu(self):
        sim = make_sim(chain3(), cpus=1, gpus=0)
        while not sim.done:
            for t in sim.ready_tasks():
                if sim.idle_processors().size:
                    sim.start(t, sim.idle_processors()[0])
            if not sim.done:
                sim.advance()
        assert sim.makespan == pytest.approx(60.0)  # 10 + 20 + 30
        sim.check_trace()

    def test_expected_remaining(self):
        sim = make_sim()
        sim.start(0, 0)  # expects 10
        assert sim.expected_remaining(0) == pytest.approx(10.0)
        assert sim.expected_remaining(1) == pytest.approx(0.0)  # idle proc

    def test_expected_remaining_clamped_under_noise(self):
        # overdue tasks report 0 remaining, never negative
        sim = Simulation(chain3(), Platform(1, 0), TABLE, GaussianNoise(2.0), rng=3)
        sim.start(0, 0)
        sim.time = sim.start_time[0] + 1000.0  # force far beyond estimate
        assert sim.expected_remaining(0) == pytest.approx(0.0)

    def test_trace_records_entries(self):
        sim = make_sim(chain3(), cpus=1, gpus=0)
        sim.start(0, 0)
        sim.advance()
        assert sim.trace == [ScheduledTask(0, 0, 0.0, 10.0)]
        assert sim.trace[0].duration == pytest.approx(10.0)

    def test_noise_changes_durations(self):
        lengths = set()
        for seed in range(5):
            sim = Simulation(chain3(), Platform(1, 0), TABLE, GaussianNoise(0.5), rng=seed)
            sim.start(0, 0)
            sim.advance()
            lengths.add(sim.time)
        assert len(lengths) > 1

    def test_noise_reproducible_by_seed(self):
        def run(seed):
            sim = Simulation(chain3(), Platform(1, 0), TABLE, GaussianNoise(0.5), rng=seed)
            sim.start(0, 0)
            sim.advance()
            return sim.time

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestCheckTrace:
    def test_requires_completion(self):
        sim = make_sim()
        with pytest.raises(AssertionError):
            sim.check_trace()

    def test_valid_trace_passes(self):
        sim = make_sim(diamond(), cpus=2, gpus=2)
        while not sim.done:
            idle = sim.idle_processors()
            for t in sim.ready_tasks():
                if idle.size:
                    sim.start(t, idle[0])
                    idle = sim.idle_processors()
            if not sim.done:
                sim.advance()
        sim.check_trace()
