"""SimKernel / VecSimulation mechanics: the struct-of-arrays core.

The K=1 ``Simulation`` view is pinned bit-exactly by the legacy engine suite
(``test_engine.py`` runs unchanged against the refactored core); this module
covers what is new — multi-row state, fused transitions, batched starts,
capacity growth, pickling of shared-kernel members, and communication-model
parity between the scalar and fused paths.
"""

import pickle

import numpy as np
import pytest

from repro.graphs import CHOLESKY_DURATIONS, DurationTable, cholesky_dag, layered_dag
from repro.platforms import (
    GaussianNoise,
    NoComm,
    NoNoise,
    Platform,
    TypePairComm,
    UniformComm,
)
from repro.sim import SimKernel, Simulation, VecSimulation
from repro.sim.kernel import IDLE

PLATFORM = Platform(2, 2)


def _random_drive(sim, rng):
    """Run one episode with random (task, proc) picks; returns the trace."""
    while not sim.done:
        ready = sim.ready_tasks()
        idle = sim.idle_processors()
        while ready.size and idle.size:
            task = int(rng.choice(ready))
            proc = int(rng.choice(idle))
            sim.start(task, proc)
            ready = sim.ready_tasks()
            idle = sim.idle_processors()
        sim.advance()
    sim.check_trace()
    return sim.trace


class TestKernelBasics:
    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError, match="num_rows"):
            SimKernel(PLATFORM, CHOLESKY_DURATIONS, 0)

    def test_init_row_rejects_narrow_duration_table(self):
        kernel = SimKernel(PLATFORM, DurationTable(["a"], [1.0], [1.0]), 1)
        with pytest.raises(ValueError, match="duration table has 1 kernels"):
            kernel.init_row(0, cholesky_dag(4))

    def test_masked_reinit_leaves_other_rows_untouched(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph, graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        m0 = vec.member(0)
        m0.start(int(m0.ready_tasks()[0]), 0)
        m0.advance()
        snapshot = (
            vec.kernel.time[0],
            vec.kernel.finished[0].copy(),
            vec.kernel.trace_len[0],
        )
        vec.kernel.init_row(1, graph)
        assert vec.kernel.time[0] == snapshot[0]
        assert np.array_equal(vec.kernel.finished[0], snapshot[1])
        assert vec.kernel.trace_len[0] == snapshot[2]
        assert vec.kernel.time[1] == 0.0  # repro-lint: disable=RPR007 -- exact init value, not a float sum
        assert vec.kernel.trace_len[1] == 0

    def test_capacity_growth_resyncs_views(self):
        small, big = cholesky_dag(3), cholesky_dag(8)
        vec = VecSimulation([small, small], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        m0, m1 = vec.member(0), vec.member(1)
        version = vec.kernel.layout_version
        m1.rebind(big)
        assert vec.kernel.layout_version > version
        # both views must point into the *new* buffers
        assert m0.ready.base is vec.kernel.ready
        assert m1.ready.size == big.num_tasks
        m0.start(int(m0.ready_tasks()[0]), 0)
        assert vec.kernel.running[0].any()

    def test_padding_never_becomes_ready(self):
        small, big = cholesky_dag(3), cholesky_dag(8)
        vec = VecSimulation([small, big], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        rng = np.random.default_rng(0)
        _random_drive(vec.member(0), rng)
        n = small.num_tasks
        assert not vec.kernel.ready[0, n:].any()
        assert vec.member(0).done


class TestFusedAdvance:
    def test_advance_rows_matches_scalar_rows(self):
        """Fused multi-row advance must equal per-row scalar advances."""
        graph = cholesky_dag(6)
        k = 4
        seeds = list(range(k))
        fused = VecSimulation([graph] * k, PLATFORM, CHOLESKY_DURATIONS,
                              GaussianNoise(0.2), rng=seeds)
        scalar = [
            Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(0.2),
                       rng=np.random.default_rng(s))
            for s in seeds
        ]
        # identical member streams need identical seed derivation: VecSimulation
        # given a seed *list* wraps each seed with as_generator, same as above
        pick = np.random.default_rng(99)
        while not fused.done.all():
            order = []
            for member, sim in enumerate(fused.members):
                if sim.done:
                    continue
                ready, idle = sim.ready_tasks(), sim.idle_processors()
                while ready.size and idle.size:
                    task, proc = int(pick.choice(ready)), int(pick.choice(idle))
                    order.append((member, task, proc))
                    sim.start(task, proc)
                    ready, idle = sim.ready_tasks(), sim.idle_processors()
            for member, task, proc in order:
                scalar[member].start(task, proc)
            rows = np.asarray(
                [i for i, s in enumerate(fused.members) if not s.done],
                dtype=np.int64,
            )
            fused.advance(rows)
            for i in rows:
                scalar[i].advance()
        for member, sim in enumerate(scalar):
            assert fused.member(member).trace == sim.trace
            assert fused.member(member).makespan == sim.makespan

    def test_advance_requires_running_work(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph, graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        m0 = vec.member(0)
        m0.start(int(m0.ready_tasks()[0]), 0)
        with pytest.raises(RuntimeError, match="no running task"):
            vec.advance(np.asarray([0, 1]))

    def test_makespans_and_done_masks(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph, graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        rng = np.random.default_rng(1)
        _random_drive(vec.member(0), rng)
        assert list(vec.done) == [True, False]
        _random_drive(vec.member(1), rng)
        ms = vec.makespans()
        assert ms.shape == (2,)
        assert (ms > 0).all()


class TestStartMany:
    def test_matches_scalar_starts(self):
        graph = layered_dag(num_layers=3, width=4, num_types=4, rng=0)
        roots = np.flatnonzero(graph.in_degree == 0)
        assert roots.size >= 2
        batched = VecSimulation([graph] * 3, PLATFORM, CHOLESKY_DURATIONS,
                                GaussianNoise(0.3), rng=[0, 1, 2])
        scalar = VecSimulation([graph] * 3, PLATFORM, CHOLESKY_DURATIONS,
                               GaussianNoise(0.3), rng=[0, 1, 2])
        rows = np.asarray([0, 0, 1, 2])
        tasks = np.asarray([roots[0], roots[1], roots[0], roots[1]])
        procs = np.asarray([0, 1, 2, 3])
        durations = batched.kernel.start_many(rows, tasks, procs)
        expected = [
            scalar.kernel.start_row(int(r), int(t), int(p))
            for r, t, p in zip(rows, tasks, procs)
        ]
        assert list(durations) == expected
        assert np.array_equal(batched.kernel.proc_finish, scalar.kernel.proc_finish)
        assert np.array_equal(batched.kernel.running, scalar.kernel.running)

    def test_invalid_entry_raises_sequential_error(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph] * 2, PLATFORM, CHOLESKY_DURATIONS, rng=0)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        with pytest.raises(ValueError, match="task 999 out of range"):
            vec.kernel.start_many(
                np.asarray([0, 1]), np.asarray([root, 999]), np.asarray([0, 0])
            )
        # the valid prefix before the offender was applied, as in a loop
        assert vec.kernel.proc_task[0, 0] == root

    def test_duplicate_task_raises_not_ready(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph] * 2, PLATFORM, CHOLESKY_DURATIONS, rng=0)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        with pytest.raises(RuntimeError, match=f"task {root} is not ready"):
            vec.kernel.start_many(
                np.asarray([0, 0]), np.asarray([root, root]), np.asarray([0, 1])
            )


class TestCommParity:
    """Satellite: NoComm vs real communication models, scalar vs fused."""

    COMMS = [
        NoComm(),
        UniformComm(3.5),
        TypePairComm([[0.5, 4.0], [4.0, 1.0]]),
    ]

    @pytest.mark.parametrize("comm", COMMS, ids=lambda c: type(c).__name__)
    def test_vec_members_match_standalone(self, comm):
        graph = cholesky_dag(5)
        k = 3
        vec = VecSimulation([graph] * k, PLATFORM, CHOLESKY_DURATIONS,
                            NoNoise(), rng=[7, 8, 9], comm=comm)
        for member, seed in enumerate([7, 8, 9]):
            ref = Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                             rng=np.random.default_rng(seed), comm=comm)
            trace = _random_drive(vec.member(member), np.random.default_rng(50))
            ref_trace = _random_drive(ref, np.random.default_rng(50))
            assert trace == ref_trace

    def test_comm_delays_shift_start_times(self):
        graph = cholesky_dag(4)
        free = VecSimulation([graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        slow = VecSimulation([graph], PLATFORM, CHOLESKY_DURATIONS, rng=0,
                             comm=UniformComm(10.0))
        t_free = _random_drive(free.member(0), np.random.default_rng(3))
        t_slow = _random_drive(slow.member(0), np.random.default_rng(3))
        assert free.member(0).makespan < slow.member(0).makespan
        assert len(t_free) == len(t_slow)

    def test_fused_advance_respects_comm(self):
        """Cross-row fused advance with per-row comm models stays row-exact."""
        graph = cholesky_dag(5)
        comms = [NoComm(), UniformComm(2.0), TypePairComm([[0.0, 5.0], [5.0, 0.0]])]
        fused = VecSimulation([graph] * 3, PLATFORM, CHOLESKY_DURATIONS,
                              rng=[1, 2, 3], comm=comms)
        refs = [
            Simulation(graph, PLATFORM, CHOLESKY_DURATIONS,
                       rng=np.random.default_rng(seed), comm=comm)
            for seed, comm in zip([1, 2, 3], comms)
        ]
        pick = np.random.default_rng(11)
        while not fused.done.all():
            for member, sim in enumerate(fused.members):
                if sim.done:
                    continue
                ready, idle = sim.ready_tasks(), sim.idle_processors()
                while ready.size and idle.size:
                    task, proc = int(pick.choice(ready)), int(pick.choice(idle))
                    sim.start(task, proc)
                    refs[member].start(task, proc)
                    ready, idle = sim.ready_tasks(), sim.idle_processors()
            rows = np.asarray(
                [i for i, s in enumerate(fused.members) if not s.done],
                dtype=np.int64,
            )
            fused.advance(rows)
            for i in rows:
                refs[i].advance()
        for member, ref in enumerate(refs):
            assert fused.member(member).trace == ref.trace


class TestExpectedRemainingRows:
    def test_matches_per_member_query(self):
        graph = cholesky_dag(5)
        vec = VecSimulation([graph] * 3, PLATFORM, CHOLESKY_DURATIONS,
                            GaussianNoise(0.2), rng=[0, 1, 2])
        for sim in vec.members:
            ready = sim.ready_tasks()
            sim.start(int(ready[0]), 0)
        vec.advance(np.asarray([0]))  # desynchronise the clocks
        rows = np.asarray([0, 1, 2])
        fused = vec.kernel.expected_remaining_rows(rows)
        for i, sim in enumerate(vec.members):
            all_procs = np.arange(PLATFORM.num_processors)
            busy = sim.busy_processors()
            expected = np.zeros(PLATFORM.num_processors)
            if busy.size:
                expected[busy] = sim.expected_remaining_many(busy)
            assert np.array_equal(fused[i], expected), (i, fused[i], expected)
            del all_procs


class TestPickling:
    def test_mid_episode_roundtrip_resumes_identically(self):
        graph = cholesky_dag(5)
        vec = VecSimulation([graph] * 2, PLATFORM, CHOLESKY_DURATIONS,
                            GaussianNoise(0.2), rng=[0, 1])
        pick = np.random.default_rng(5)
        for sim in vec.members:
            sim.start(int(pick.choice(sim.ready_tasks())), 0)
        vec.advance(np.asarray([0, 1]))
        clone = pickle.loads(pickle.dumps(vec))
        assert clone.kernel is not vec.kernel
        for a, b in zip(vec.members, clone.members):
            assert b._kernel is clone.kernel  # views re-register on restore
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        traces_a = [_random_drive(s, rng_a) for s in vec.members]
        traces_b = [_random_drive(s, rng_b) for s in clone.members]
        assert traces_a == traces_b

    def test_old_pickle_rebuilds_task_types(self):
        """A kernel pickled before ``task_types`` existed restores it from
        its row graphs, and the type gathers read the same integers."""
        graphs = [cholesky_dag(3), cholesky_dag(5)]
        vec = VecSimulation(graphs, PLATFORM, CHOLESKY_DURATIONS, rng=[0, 1])
        for sim in vec.members:
            sim.start(int(sim.ready_tasks()[0]), 0)
        state = vec.kernel.__getstate__()
        del state["task_types"]
        clone = SimKernel.__new__(SimKernel)
        clone.__setstate__(state)
        assert np.array_equal(clone.task_types, vec.kernel.task_types)
        for row, graph in enumerate(graphs):
            assert np.array_equal(
                clone.task_types[row, : graph.num_tasks], graph.task_types
            )
        rows = np.asarray([0, 1])
        assert np.array_equal(
            clone.expected_remaining_rows(rows),
            vec.kernel.expected_remaining_rows(rows),
        )

    def test_kernel_pickle_drops_metric_handles(self):
        graph = cholesky_dag(4)
        vec = VecSimulation([graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
        _random_drive(vec.member(0), np.random.default_rng(0))
        clone = pickle.loads(pickle.dumps(vec))
        assert clone.kernel._metric_handles is None


class TestMetricHandleCache:
    def test_handles_rebind_after_registry_reset(self):
        from repro import obs

        graph = cholesky_dag(4)
        obs.METRICS.reset()
        obs.METRICS.enabled = True
        try:
            vec = VecSimulation([graph], PLATFORM, CHOLESKY_DURATIONS, rng=0)
            _random_drive(vec.member(0), np.random.default_rng(0))
            first = obs.METRICS.counter("sim/tasks_started").value
            assert first == graph.num_tasks
            obs.METRICS.reset()  # bumps the generation; stale handles must die
            obs.METRICS.enabled = True
            vec.member(0).rebind(graph)
            _random_drive(vec.member(0), np.random.default_rng(0))
            assert obs.METRICS.counter("sim/tasks_started").value == graph.num_tasks
        finally:
            obs.METRICS.reset()
            obs.METRICS.enabled = False

    def test_start_many_counts_batched_starts(self):
        from repro import obs

        graph = cholesky_dag(4)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        obs.METRICS.reset()
        obs.METRICS.enabled = True
        try:
            vec = VecSimulation([graph] * 2, PLATFORM, CHOLESKY_DURATIONS, rng=0)
            vec.kernel.start_many(
                np.asarray([0, 1]), np.asarray([root, root]), np.asarray([0, 1])
            )
            assert obs.METRICS.counter("sim/tasks_started").value == 2
        finally:
            obs.METRICS.reset()
            obs.METRICS.enabled = False


def test_idle_sentinel_is_shared_with_engine():
    from repro.sim import engine

    assert engine.IDLE == IDLE == -1
