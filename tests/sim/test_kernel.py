"""SimKernel mechanics: the struct-of-arrays core.

The K=1 ``Simulation`` view is pinned bit-exactly by the legacy engine suite
(``test_engine.py`` runs unchanged against the refactored core); this module
covers what is new — multi-row state, fused transitions, batched starts,
capacity growth, pickling of shared-kernel members, and communication-model
parity between the scalar and fused paths.  Rows are built the way a
vectorised environment builds them: one ``SimKernel`` and a
``Simulation._attach`` view per row.
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
from repro.sim import SimKernel, Simulation
from repro.sim.kernel import IDLE

PLATFORM = Platform(2, 2)


def _rows(graphs, noise=None, rngs=(0,), comms=None):
    """One kernel holding a row per graph; returns ``(kernel, views)``.

    Row k draws from ``np.random.default_rng(rngs[k])`` (one seed is
    reused for every row) and uses ``comms[k]`` (default: free).
    """
    k = len(graphs)
    rngs = list(rngs) * k if len(rngs) == 1 else list(rngs)
    comms = comms if comms is not None else [None] * k
    kernel = SimKernel(PLATFORM, CHOLESKY_DURATIONS, k)
    views = [
        Simulation._attach(kernel, row, graph, noise,
                           np.random.default_rng(rngs[row]), comms[row])
        for row, graph in enumerate(graphs)
    ]
    return kernel, views


def _advance(kernel, views):
    """One fused event step for every unfinished row."""
    rows = np.asarray([v._row for v in views if not v.done], dtype=np.int64)
    kernel.advance_rows(rows)
    return rows


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
        kernel, (m0, _m1) = _rows([graph, graph])
        m0.start(int(m0.ready_tasks()[0]), 0)
        m0.advance()
        snapshot = (
            kernel.time[0],
            kernel.finished[0].copy(),
            kernel.trace_len[0],
        )
        kernel.init_row(1, graph)
        assert kernel.time[0] == snapshot[0]
        assert np.array_equal(kernel.finished[0], snapshot[1])
        assert kernel.trace_len[0] == snapshot[2]
        assert kernel.time[1] == 0.0  # repro-lint: disable=RPR007 -- exact init value, not a float sum
        assert kernel.trace_len[1] == 0

    def test_capacity_growth_resyncs_views(self):
        small, big = cholesky_dag(3), cholesky_dag(8)
        kernel, (m0, m1) = _rows([small, small])
        version = kernel.layout_version
        m1.rebind(big)
        assert kernel.layout_version > version
        # both views must point into the *new* buffers
        assert m0.ready.base is kernel.ready
        assert m1.ready.size == big.num_tasks
        m0.start(int(m0.ready_tasks()[0]), 0)
        assert kernel.running[0].any()

    def test_padding_never_becomes_ready(self):
        small, big = cholesky_dag(3), cholesky_dag(8)
        kernel, (m0, _m1) = _rows([small, big])
        rng = np.random.default_rng(0)
        _random_drive(m0, rng)
        n = small.num_tasks
        assert not kernel.ready[0, n:].any()
        assert m0.done


class TestFusedAdvance:
    def test_advance_rows_matches_scalar_rows(self):
        """Fused multi-row advance must equal per-row scalar advances."""
        graph = cholesky_dag(6)
        k = 4
        seeds = list(range(k))
        kernel, fused = _rows([graph] * k, GaussianNoise(0.2), rngs=seeds)
        scalar = [
            Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, GaussianNoise(0.2),
                       rng=np.random.default_rng(s))
            for s in seeds
        ]
        pick = np.random.default_rng(99)
        while not all(sim.done for sim in fused):
            order = []
            for member, sim in enumerate(fused):
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
            for i in _advance(kernel, fused):
                scalar[i].advance()
        for member, sim in enumerate(scalar):
            assert fused[member].trace == sim.trace
            assert fused[member].makespan == sim.makespan

    def test_advance_requires_running_work(self):
        graph = cholesky_dag(4)
        kernel, (m0, _m1) = _rows([graph, graph])
        m0.start(int(m0.ready_tasks()[0]), 0)
        with pytest.raises(RuntimeError, match="no running task"):
            kernel.advance_rows(np.asarray([0, 1]))


class TestStartMany:
    def test_matches_scalar_starts(self):
        graph = layered_dag(num_layers=3, width=4, num_types=4, rng=0)
        roots = np.flatnonzero(graph.in_degree == 0)
        assert roots.size >= 2
        batched, _ = _rows([graph] * 3, GaussianNoise(0.3), rngs=[0, 1, 2])
        scalar, _ = _rows([graph] * 3, GaussianNoise(0.3), rngs=[0, 1, 2])
        rows = np.asarray([0, 0, 1, 2])
        tasks = np.asarray([roots[0], roots[1], roots[0], roots[1]])
        procs = np.asarray([0, 1, 2, 3])
        durations = batched.start_many(rows, tasks, procs)
        expected = [
            scalar.start_row(int(r), int(t), int(p))
            for r, t, p in zip(rows, tasks, procs)
        ]
        assert list(durations) == expected
        assert np.array_equal(batched.proc_finish, scalar.proc_finish)
        assert np.array_equal(batched.running, scalar.running)

    @pytest.mark.parametrize("noise", [NoNoise(), GaussianNoise(0.3)],
                             ids=["deterministic", "noisy"])
    def test_single_entry_is_start_row(self, noise):
        """At one row ``start_many`` is ``start_row``: same duration, same
        state, same draw from the row's stream."""
        graph = cholesky_dag(4)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        batched, (b,) = _rows([graph], noise, rngs=[3])
        scalar, (s,) = _rows([graph], noise, rngs=[3])
        durations = batched.start_many([0], [root], [2])
        assert list(durations) == [scalar.start_row(0, root, 2)]
        assert np.array_equal(batched.proc_finish, scalar.proc_finish)
        assert np.array_equal(batched.start_time, scalar.start_time, equal_nan=True)
        assert b.rng.random() == s.rng.random()

    def test_invalid_entry_raises_sequential_error(self):
        graph = cholesky_dag(4)
        kernel, _ = _rows([graph] * 2)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        with pytest.raises(ValueError, match="task 999 out of range"):
            kernel.start_many(
                np.asarray([0, 1]), np.asarray([root, 999]), np.asarray([0, 0])
            )
        # the valid prefix before the offender was applied, as in a loop
        assert kernel.proc_task[0, 0] == root

    def test_duplicate_task_raises_not_ready(self):
        graph = cholesky_dag(4)
        kernel, _ = _rows([graph] * 2)
        root = int(np.flatnonzero(graph.in_degree == 0)[0])
        with pytest.raises(RuntimeError, match=f"task {root} is not ready"):
            kernel.start_many(
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
        _kernel, views = _rows([graph] * k, NoNoise(), rngs=[7, 8, 9],
                               comms=[comm] * k)
        for member, seed in enumerate([7, 8, 9]):
            ref = Simulation(graph, PLATFORM, CHOLESKY_DURATIONS, NoNoise(),
                             rng=np.random.default_rng(seed), comm=comm)
            trace = _random_drive(views[member], np.random.default_rng(50))
            ref_trace = _random_drive(ref, np.random.default_rng(50))
            assert trace == ref_trace

    def test_comm_delays_shift_start_times(self):
        graph = cholesky_dag(4)
        _k, (free,) = _rows([graph])
        _k, (slow,) = _rows([graph], comms=[UniformComm(10.0)])
        t_free = _random_drive(free, np.random.default_rng(3))
        t_slow = _random_drive(slow, np.random.default_rng(3))
        assert free.makespan < slow.makespan
        assert len(t_free) == len(t_slow)

    def test_fused_advance_respects_comm(self):
        """Cross-row fused advance with per-row comm models stays row-exact."""
        graph = cholesky_dag(5)
        comms = [NoComm(), UniformComm(2.0), TypePairComm([[0.0, 5.0], [5.0, 0.0]])]
        kernel, fused = _rows([graph] * 3, rngs=[1, 2, 3], comms=comms)
        refs = [
            Simulation(graph, PLATFORM, CHOLESKY_DURATIONS,
                       rng=np.random.default_rng(seed), comm=comm)
            for seed, comm in zip([1, 2, 3], comms)
        ]
        pick = np.random.default_rng(11)
        while not all(sim.done for sim in fused):
            for member, sim in enumerate(fused):
                if sim.done:
                    continue
                ready, idle = sim.ready_tasks(), sim.idle_processors()
                while ready.size and idle.size:
                    task, proc = int(pick.choice(ready)), int(pick.choice(idle))
                    sim.start(task, proc)
                    refs[member].start(task, proc)
                    ready, idle = sim.ready_tasks(), sim.idle_processors()
            for i in _advance(kernel, fused):
                refs[i].advance()
        for member, ref in enumerate(refs):
            assert fused[member].trace == ref.trace


class TestPickling:
    def test_mid_episode_roundtrip_resumes_identically(self):
        graph = cholesky_dag(5)
        kernel, views = _rows([graph] * 2, GaussianNoise(0.2), rngs=[0, 1])
        pick = np.random.default_rng(5)
        for sim in views:
            sim.start(int(pick.choice(sim.ready_tasks())), 0)
        kernel.advance_rows(np.asarray([0, 1]))
        clone_kernel, clone_views = pickle.loads(pickle.dumps((kernel, views)))
        assert clone_kernel is not kernel
        for view in clone_views:
            assert view._kernel is clone_kernel  # views re-register on restore
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        traces_a = [_random_drive(s, rng_a) for s in views]
        traces_b = [_random_drive(s, rng_b) for s in clone_views]
        assert traces_a == traces_b

    def test_old_pickle_rebuilds_task_types(self):
        """A kernel pickled before ``task_types`` existed restores it from
        its row graphs, and the type gathers read the same integers."""
        graphs = [cholesky_dag(3), cholesky_dag(5)]
        kernel, views = _rows(graphs, rngs=[0, 1])
        for sim in views:
            sim.start(int(sim.ready_tasks()[0]), 0)
        state = kernel.__getstate__()
        del state["task_types"]
        clone = SimKernel.__new__(SimKernel)
        clone.__setstate__(state)
        assert np.array_equal(clone.task_types, kernel.task_types)
        for row, graph in enumerate(graphs):
            assert np.array_equal(
                clone.task_types[row, : graph.num_tasks], graph.task_types
            )
        rows = np.asarray([0, 1])
        for got, want in zip(clone.busy_remaining(rows), kernel.busy_remaining(rows)):
            assert np.array_equal(got, want)

    def test_kernel_pickle_drops_metric_handles(self):
        graph = cholesky_dag(4)
        kernel, (view,) = _rows([graph])
        _random_drive(view, np.random.default_rng(0))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._metric_handles is None


class TestMetricHandleCache:
    def test_handles_rebind_after_registry_reset(self):
        from repro import obs

        graph = cholesky_dag(4)
        obs.METRICS.reset()
        obs.METRICS.enabled = True
        try:
            _kernel, (view,) = _rows([graph])
            _random_drive(view, np.random.default_rng(0))
            first = obs.METRICS.counter("sim/tasks_started").value
            assert first == graph.num_tasks
            obs.METRICS.reset()  # bumps the generation; stale handles must die
            obs.METRICS.enabled = True
            view.rebind(graph)
            _random_drive(view, np.random.default_rng(0))
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
            kernel, _ = _rows([graph] * 2)
            kernel.start_many(
                np.asarray([0, 1]), np.asarray([root, root]), np.asarray([0, 1])
            )
            assert obs.METRICS.counter("sim/tasks_started").value == 2
        finally:
            obs.METRICS.reset()
            obs.METRICS.enabled = False


def test_idle_sentinel_is_shared_with_engine():
    from repro.sim import engine

    assert engine.IDLE == IDLE == -1
