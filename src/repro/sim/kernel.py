"""Struct-of-arrays simulator core: K episodes in one set of arrays.

:class:`SimKernel` holds the *entire* mutable state of K scheduling episodes
as ``(K, n)`` task arrays (``remaining_preds``, ``ready``, ``running``,
``start_time``/``completion_time``, ``executed_on``) and ``(K, p)`` processor
arrays (``proc_task``, ``proc_finish``), padded to the largest member graph.
Rows are independent episodes; the kernel provides

* **per-row transitions** (``start_row``, masked ``init_row`` re-init) that
  are bit-identical to the historical per-object simulator — the scalar ops
  and the RNG consumption order are unchanged, so a K=1
  :class:`~repro.sim.engine.Simulation` view reproduces the pre-refactor
  engine exactly;
* a **fused event step** (``advance_rows``): one masked ``min`` over
  ``proc_finish`` finds every row's next completion instant, one
  ``np.nonzero`` collects all finishing processors across rows in
  (row-major, processor-ascending) order — the historical completion order —
  and successor release is a flat CSR gather
  (:meth:`~repro.graphs.taskgraph.TaskGraph.successors_of_many`) with an
  ``np.subtract.at`` in-degree decrement, instead of K Python event loops.

Noise stays a **per-row** draw at task start: every row owns its RNG stream
(spawned from one root ``SeedSequence``), and cross-row batching of the
draws would change each stream's consumption order and break the
row-identical-trace contract.  Completions, successor release and time
advancement carry no randomness, so those *are* fused.

The kernel records the trace as arrays too (``trace_tasks`` in completion
order plus the per-task start/finish/processor arrays), which is what makes
:meth:`Simulation.check_trace` a handful of vectorised reductions instead of
O(E) Python dict loops.

Design notes live in DESIGN.md §11.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro import obs
from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.comm import CommunicationModel, NoComm
from repro.platforms.noise import NoiseModel, NoNoise
from repro.platforms.resources import Platform

#: sentinel for "processor is idle" (shared with :mod:`repro.sim.engine`)
IDLE = -1

#: ``remaining_preds`` value of padding columns (rows whose graph is smaller
#: than the kernel capacity): positive and never decremented — no CSR edge
#: of any member graph points at a padding column — so padded tasks can
#: never enter the ready set of any ``(K, n)`` reduction
_PAD_PREDS = 1


class SimKernel:
    """Array-of-rows state of K scheduling episodes over one platform.

    Parameters
    ----------
    platform, durations:
        Shared across rows — every row's processors and expected-duration
        table (heterogeneous *members* use the per-row ``durations`` objects
        of their environments for observation building; the kernel requires
        them to be value-equal so the fused gathers are exact).
    num_rows:
        K, the number of episodes held side by side.

    Rows are populated with :meth:`init_row` (a masked re-init: only row k's
    slices are touched) and driven through :meth:`start_row` /
    :meth:`advance_rows`.  Per-row graph/noise/rng/comm handles live in
    parallel lists; capacity grows geometrically when a row binds a graph
    larger than any seen before (views registered via :meth:`attach_view`
    are re-synced after every growth).
    """

    def __init__(
        self, platform: Platform, durations: DurationTable, num_rows: int
    ) -> None:
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        self.platform = platform
        self.durations = durations
        self.num_rows = int(num_rows)
        k, p = self.num_rows, platform.num_processors
        self.capacity = 0
        self.layout_version = 0

        self.time = np.zeros(k, dtype=np.float64)
        self.proc_task = np.full((k, p), IDLE, dtype=np.int64)
        self.proc_finish = np.full((k, p), np.inf, dtype=np.float64)

        # (K, capacity) task arrays — allocated by _ensure_capacity
        self.remaining_preds = np.empty((k, 0), dtype=np.int64)
        self.ready = np.empty((k, 0), dtype=bool)
        self.running = np.empty((k, 0), dtype=bool)
        self.finished = np.empty((k, 0), dtype=bool)
        self.completion_time = np.empty((k, 0), dtype=np.float64)
        self.start_time = np.empty((k, 0), dtype=np.float64)
        self.executed_on = np.empty((k, 0), dtype=np.int64)
        self.trace_tasks = np.empty((k, 0), dtype=np.int64)
        #: each row's graph task types, so mixed-graph gathers are one index
        self.task_types = np.zeros((k, 0), dtype=np.int64)

        self.n_tasks = np.zeros(k, dtype=np.int64)
        self.num_unfinished = np.zeros(k, dtype=np.int64)
        self.trace_len = np.zeros(k, dtype=np.int64)

        self.graphs: List[Optional[TaskGraph]] = [None] * k
        self.noises: List[NoiseModel] = [NoNoise()] * k
        self.comms: List[CommunicationModel] = [NoComm()] * k
        self.rngs: List[Optional[np.random.Generator]] = [None] * k
        #: per-row fast-path flags mirrored from noises/comms (σ=0 draws and
        #: free comms let the batched paths skip per-entry Python work);
        #: maintained by init_row/set_noise/set_comm — never write the lists
        #: directly from outside
        self._noise_det = np.ones(k, dtype=bool)
        self._comm_free = np.ones(k, dtype=bool)
        #: token per distinct graph object — fused successor release groups
        #: completed tasks by token so mixed-graph kernels stay correct
        self._graph_tokens = np.full(k, -1, dtype=np.int64)
        self._token_graphs: dict = {}
        self._next_token = 0

        self._views: List[Any] = []
        self._metric_handles: Optional[tuple] = None
        #: memo of :mod:`repro.sim.state` batch layouts over these rows
        #: (graph-static, rebuilt on demand, never pickled)
        self.observation_layouts: dict = {}

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def attach_view(self, view: Any) -> None:
        """Register a row view to be re-synced after capacity growth."""
        if view not in self._views:
            self._views.append(view)

    def _ensure_capacity(self, n: int) -> None:
        if n <= self.capacity:
            return
        new = max(int(n), 2 * self.capacity)
        k = self.num_rows
        old = self.capacity

        def grow(arr: np.ndarray, fill: Any) -> np.ndarray:
            out = np.full((k, new), fill, dtype=arr.dtype)
            out[:, :old] = arr
            return out

        self.remaining_preds = grow(self.remaining_preds, _PAD_PREDS)
        self.ready = grow(self.ready, False)
        self.running = grow(self.running, False)
        self.finished = grow(self.finished, False)
        self.completion_time = grow(self.completion_time, np.nan)
        self.start_time = grow(self.start_time, np.nan)
        self.executed_on = grow(self.executed_on, IDLE)
        self.trace_tasks = grow(self.trace_tasks, IDLE)
        self.task_types = grow(self.task_types, 0)
        self.capacity = new
        self.layout_version += 1
        for view in self._views:
            view._sync_views()

    def init_row(
        self,
        row: int,
        graph: TaskGraph,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
        comm: Optional[CommunicationModel] = None,
    ) -> None:
        """(Re-)initialise row ``row`` for a fresh episode of ``graph``.

        A *masked* re-init: only row ``row``'s slices are written, so other
        rows mid-episode are untouched (this is what vectorised auto-reset
        calls).  Raises the historical ``ValueError`` when the duration
        table is too narrow for the graph.
        """
        if self.durations.num_kernels < graph.num_types:
            raise ValueError(
                f"duration table has {self.durations.num_kernels} kernels but "
                f"the graph uses {graph.num_types} task types"
            )
        n = graph.num_tasks
        self._ensure_capacity(n)
        self.graphs[row] = graph
        token = self._token_graphs.get(id(graph))
        if token is None or self._token_graphs[id(graph)][1] is not graph:
            token = (self._next_token, graph)
            self._next_token += 1
            self._token_graphs[id(graph)] = token
        self._graph_tokens[row] = token[0]
        if noise is not None:
            self.set_noise(row, noise)
        if rng is not None:
            self.rngs[row] = rng
        if comm is not None:
            self.set_comm(row, comm)

        self.time[row] = 0.0
        self.task_types[row, :n] = graph.task_types
        self.task_types[row, n:] = 0
        self.remaining_preds[row, :n] = graph.in_degree
        self.remaining_preds[row, n:] = _PAD_PREDS
        self.ready[row, :n] = graph.in_degree == 0
        self.ready[row, n:] = False
        self.running[row] = False
        self.finished[row] = False
        self.completion_time[row] = np.nan
        self.start_time[row] = np.nan
        self.executed_on[row] = IDLE
        self.trace_tasks[row] = IDLE
        self.proc_task[row] = IDLE
        self.proc_finish[row] = np.inf
        self.n_tasks[row] = n
        self.num_unfinished[row] = n
        self.trace_len[row] = 0

    def set_noise(self, row: int, noise: NoiseModel) -> None:
        """Bind a noise model to ``row`` (keeps the fast-path flag in sync)."""
        self.noises[row] = noise
        self._noise_det[row] = noise.is_deterministic

    def set_comm(self, row: int, comm: CommunicationModel) -> None:
        """Bind a communication model to ``row`` (keeps the flag in sync)."""
        self.comms[row] = comm
        self._comm_free[row] = comm.is_free

    # ------------------------------------------------------------------ #
    # metric handles (bound once per registry generation, not per event)
    # ------------------------------------------------------------------ #

    def _metrics(self, registry: "obs.MetricsRegistry") -> tuple:
        """Counter/gauge handles for the sim hot path.

        The registry dict lookup runs once per ``(registry, generation)``
        instead of once per event; ``generation`` bumps on
        ``MetricsRegistry.reset()``, so a reset can never leave stale
        handles accumulating into dropped metrics.
        """
        handles = self._metric_handles
        if (
            handles is None
            or handles[0] is not registry
            or handles[1] != registry.generation
        ):
            handles = (
                registry,
                registry.generation,
                registry.counter("sim/tasks_started"),
                registry.counter("sim/busy_time"),
                registry.counter("sim/idle_time"),
                registry.counter("sim/events"),
                registry.gauge("sim/utilization"),
                registry.counter("sim/task_completions"),
            )
            self._metric_handles = handles
        return handles

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #

    def start_row(self, row: int, task: int, proc: int) -> float:
        """Begin ``task`` on ``proc`` in row ``row`` now; returns the actual duration.

        Scalar per-row semantics, bit-identical to the historical
        ``Simulation.start``: the same validation messages, the same
        single-draw noise consumption from the row's own RNG stream, the
        same communication-arrival maximum.
        """
        task, proc = int(task), int(proc)
        graph = self.graphs[row]
        assert graph is not None, "init_row must run before start_row"
        if not 0 <= task < graph.num_tasks:
            raise ValueError(f"task {task} out of range")
        if not 0 <= proc < self.platform.num_processors:
            raise ValueError(f"processor {proc} out of range")
        if not self.ready[row, task]:
            raise RuntimeError(
                f"task {task} is not ready at t={float(self.time[row])}"
            )
        if self.proc_task[row, proc] != IDLE:
            raise RuntimeError(
                f"processor {proc} is busy at t={float(self.time[row])}"
            )
        dst_type = self.platform.type_of(proc)
        expected = self.durations.expected(int(graph.task_types[task]), dst_type)
        actual = float(
            self.noises[row].sample_for(
                np.asarray([expected]), dst_type, self.rngs[row]
            )[0]
        )
        # Communication: the processor commits now, but execution begins only
        # when the inputs produced on other processors have arrived.
        begin = float(self.time[row])
        comm = self.comms[row]
        if not comm.is_free:
            preds = graph.predecessors(task)
            if preds.size:
                src = self.executed_on[row, preds]
                arrivals = self.completion_time[row, preds] + comm.delay_many(
                    src, proc, self.platform.resource_types[src], dst_type
                )
                latest = arrivals.max()
                if latest > begin:
                    begin = float(latest)
        self.ready[row, task] = False
        self.running[row, task] = True
        self.start_time[row, task] = begin
        self.executed_on[row, task] = proc
        self.proc_task[row, proc] = task
        self.proc_finish[row, proc] = begin + actual
        registry = obs.METRICS
        if registry.enabled:
            self._metrics(registry)[2].inc()
        return actual

    def start_many(
        self, rows: np.ndarray, tasks: np.ndarray, procs: np.ndarray
    ) -> np.ndarray:
        """Begin many ``(row, task, proc)`` starts at once; returns durations.

        Bit-identical to issuing :meth:`start_row` per entry in order: noise
        is still drawn entry-by-entry from each row's own stream (so the
        per-row consumption order is the sequential one), but validation,
        the duration-table gather and all state writes are single array
        passes — and rows with deterministic noise and free communication
        skip the per-entry Python work entirely.  A single entry is one
        :meth:`start_row` call.  Entries must not repeat a ``(row, proc)``
        or ``(row, task)`` pair; offenders raise the same error the second
        sequential start would have raised.  The environments' decision loop
        starts every member's chosen task through here, one call per kernel.
        """
        if len(rows) == 1:
            return np.asarray(
                [self.start_row(int(rows[0]), int(tasks[0]), int(procs[0]))]
            )
        rows = np.asarray(rows, dtype=np.int64)
        tasks = np.asarray(tasks, dtype=np.int64)
        procs = np.asarray(procs, dtype=np.int64)
        if not rows.size:
            return np.empty(0, dtype=np.float64)
        num_procs = self.platform.num_processors
        # duplicate (row, proc) / (row, task) pairs would replay as "busy" /
        # "not ready" on the second sequential start, so they invalidate too
        cap = max(self.capacity, num_procs) + 1
        key_p = (rows * cap + procs).tolist()
        key_t = (rows * cap + tasks).tolist()
        ok = (
            len(set(key_p)) == len(key_p)
            and len(set(key_t)) == len(key_t)
            and bool(
                (
                    (tasks >= 0)
                    & (tasks < self.n_tasks[rows])
                    & (procs >= 0)
                    & (procs < num_procs)
                ).all()
            )
        )
        if ok:
            ok = bool(
                (
                    self.ready[rows, tasks]
                    & (self.proc_task[rows, procs] == IDLE)
                ).all()
            )
        if not ok:
            # replay sequentially up to the first offender so the raised
            # error (message, time value, applied prefix) is the sequential one
            for row, task, proc in zip(rows, tasks, procs):
                self.start_row(int(row), int(task), int(proc))
            raise AssertionError("unreachable: sequential replay must raise")

        dst_types = self.platform.resource_types[procs]
        expected = self.durations.table[self.task_types[rows, tasks], dst_types]

        noises, rngs, comms = self.noises, self.rngs, self.comms
        if self._noise_det[rows].all():
            # σ = 0 draws return the expectation without touching the RNG,
            # so skipping the per-entry calls is stream- and value-exact
            actual = noises[int(rows[0])].sample_for(
                expected, int(dst_types[0]), None
            )
        else:
            actual = np.empty(tasks.size, dtype=np.float64)
            for i in range(tasks.size):
                row = int(rows[i])
                actual[i] = float(
                    noises[row].sample_for(
                        np.asarray([expected[i]]), int(dst_types[i]), rngs[row]
                    )[0]
                )
        begin = self.time[rows].copy()
        if not self._comm_free[rows].all():
            for i in range(tasks.size):
                row, comm = int(rows[i]), comms[int(rows[i])]
                if comm.is_free:
                    continue
                preds = self.graphs[row].predecessors(int(tasks[i]))
                if preds.size:
                    src = self.executed_on[row, preds]
                    arrivals = self.completion_time[row, preds] + comm.delay_many(
                        src,
                        int(procs[i]),
                        self.platform.resource_types[src],
                        int(dst_types[i]),
                    )
                    latest = arrivals.max()
                    if latest > begin[i]:
                        begin[i] = float(latest)
        self.ready[rows, tasks] = False
        self.running[rows, tasks] = True
        self.start_time[rows, tasks] = begin
        self.executed_on[rows, tasks] = procs
        self.proc_task[rows, procs] = tasks
        self.proc_finish[rows, procs] = begin + actual
        registry = obs.METRICS
        if registry.enabled:
            self._metrics(registry)[2].inc(tasks.size)
        return actual

    def advance_row(self, row: int) -> np.ndarray:
        """Jump row ``row`` to its next completion instant; returns freed procs.

        The scalar fast path of :meth:`advance_rows` — identical state
        transitions, tuned for the K=1 view's per-event call pattern.
        """
        proc_task = self.proc_task[row]
        proc_finish = self.proc_finish[row]
        busy = np.flatnonzero(proc_task != IDLE)
        if busy.size == 0:
            raise RuntimeError(
                "advance() with no running task — schedule something first"
            )
        t_next = float(proc_finish[busy].min())
        finishing = busy[proc_finish[busy] <= t_next]
        registry = obs.METRICS
        if registry.enabled:
            self._account_interval(
                registry, np.asarray([row]), np.asarray([t_next]),
                np.asarray([busy.size]),
            )
        self.time[row] = t_next
        tasks = proc_task[finishing]
        self.running[row, tasks] = False
        self.finished[row, tasks] = True
        self.completion_time[row, tasks] = t_next
        proc_task[finishing] = IDLE
        proc_finish[finishing] = np.inf
        pos = int(self.trace_len[row])
        self.trace_tasks[row, pos: pos + tasks.size] = tasks
        self.trace_len[row] = pos + tasks.size
        self.num_unfinished[row] -= tasks.size
        # release successors: flat CSR gather + in-degree decrement
        graph = self.graphs[row]
        succs, _counts = graph.successors_of_many(tasks)
        if succs.size:
            preds_left = self.remaining_preds[row]
            np.subtract.at(preds_left, succs, 1)
            newly = succs[preds_left[succs] == 0]
            self.ready[row, newly] = True
        if registry.enabled:
            self._metrics(registry)[7].inc(tasks.size)
        return finishing.astype(np.int64, copy=False)

    def advance_rows(self, rows: np.ndarray) -> None:
        """Jump every row in ``rows`` to its own next completion instant.

        One fused pass over the ``(R, p)``/``(R, n)`` slices: masked ``min``
        for the event times, one ``np.nonzero`` for all finishing processors
        (row-major order keeps each row's historical ascending-processor
        completion order), a flat CSR successor gather with an
        ``np.subtract.at`` in-degree decrement.  Raises the historical
        RuntimeError if any row has nothing running.
        """
        if len(rows) == 1:
            self.advance_row(int(rows[0]))
            return
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        pf = self.proc_finish[rows]
        t_next = pf.min(axis=1)
        if np.isinf(t_next).any():
            raise RuntimeError(
                "advance() with no running task — schedule something first"
            )
        busy_counts = (self.proc_task[rows] != IDLE).sum(axis=1)
        registry = obs.METRICS
        if registry.enabled:
            self._account_interval(registry, rows, t_next, busy_counts)
        self.time[rows] = t_next
        fin = pf <= t_next[:, None]  # idle procs sit at +inf and never match
        r_idx, p_idx = np.nonzero(fin)  # row-major → per-row ascending procs
        rows_flat = rows[r_idx]
        tasks = self.proc_task[rows_flat, p_idx]
        self.running[rows_flat, tasks] = False
        self.finished[rows_flat, tasks] = True
        self.completion_time[rows_flat, tasks] = t_next[r_idx]
        self.proc_task[rows_flat, p_idx] = IDLE
        self.proc_finish[rows_flat, p_idx] = np.inf
        counts = fin.sum(axis=1)
        cum = np.cumsum(counts)
        within = np.arange(tasks.size) - np.repeat(cum - counts, counts)
        self.trace_tasks[rows_flat, self.trace_len[rows_flat] + within] = tasks
        self.trace_len[rows] += counts
        self.num_unfinished[rows] -= counts
        self._release_successors(rows_flat, tasks)
        if registry.enabled:
            self._metrics(registry)[7].inc(tasks.size)

    def _release_successors(self, rows_flat: np.ndarray, tasks: np.ndarray) -> None:
        """Decrement in-degrees of the successors of ``tasks`` (per row).

        Rows sharing one graph object release in a single CSR gather; a
        mixed-graph kernel loops once per distinct graph among the
        completing rows (≤ K small groups, each fully vectorised).
        """
        if tasks.size == 0:
            return
        if self._next_token == 1:
            # single shared graph — one CSR gather, no token grouping
            graph = self.graphs[int(rows_flat[0])]
            succs, per_task = graph.successors_of_many(tasks)
            if succs.size == 0:
                return
            succ_rows = np.repeat(rows_flat, per_task)
            np.subtract.at(self.remaining_preds, (succ_rows, succs), 1)
            newly = self.remaining_preds[succ_rows, succs] == 0
            self.ready[succ_rows[newly], succs[newly]] = True
            return
        tokens = self._graph_tokens[rows_flat]
        for token in np.unique(tokens):
            group = tokens == token
            graph = self.graphs[int(rows_flat[group][0])]
            succs, per_task = graph.successors_of_many(tasks[group])
            if succs.size == 0:
                continue
            succ_rows = np.repeat(rows_flat[group], per_task)
            np.subtract.at(self.remaining_preds, (succ_rows, succs), 1)
            newly = self.remaining_preds[succ_rows, succs] == 0
            self.ready[succ_rows[newly], succs[newly]] = True

    def _account_interval(
        self,
        registry: "obs.MetricsRegistry",
        rows: np.ndarray,
        t_next: np.ndarray,
        busy_counts: np.ndarray,
    ) -> None:
        """Busy/idle processor-second accounting for one event per row."""
        handles = self._metrics(registry)
        dt = t_next - self.time[rows]
        num_procs = self.platform.num_processors
        busy_counter, idle_counter = handles[3], handles[4]
        busy_counter.inc(float((dt * busy_counts).sum()))
        idle_counter.inc(float((dt * (num_procs - busy_counts)).sum()))
        handles[5].inc(rows.size)
        total = busy_counter.value + idle_counter.value
        if total > 0:
            handles[6].set(busy_counter.value / total)

    # ------------------------------------------------------------------ #
    # fused queries
    # ------------------------------------------------------------------ #

    def busy_remaining(self, rows: np.ndarray) -> tuple:
        """Every busy processor of ``rows`` with its task's expected remaining time.

        Returns ``(r_idx, p_idx, tasks, remaining)``: position into ``rows``,
        processor, running task and ``max(0, start + expected - now)``, in
        row-major order.  One duration-table gather for every busy
        processor of every requested row — what
        :func:`repro.sim.state.build_observations` reads the remaining-time
        feature and the processor descriptor from.
        """
        pt = self.proc_task[rows]
        r_idx, p_idx = np.nonzero(pt != IDLE)
        rows_flat = rows[r_idx]
        tasks = pt[r_idx, p_idx]
        exp = self.durations.table[
            self.task_types[rows_flat, tasks], self.platform.resource_types[p_idx]
        ]
        remaining = np.maximum(
            0.0, self.start_time[rows_flat, tasks] + exp - self.time[rows_flat]
        )
        return r_idx, p_idx, tasks, remaining

    # ------------------------------------------------------------------ #
    # pickling (stale metric handles must not survive a checkpoint)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_metric_handles"] = None
        # graph-identity tokens are keyed by id(); ids do not survive a
        # pickle round-trip, so rebuild the map on restore
        state["_token_graphs"] = {}
        # views re-register themselves in their own __setstate__; keeping
        # them here would put a kernel↔view cycle into the pickle stream and
        # a partially-restored kernel under the views' re-sync
        state["_views"] = []
        state["observation_layouts"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("observation_layouts", {})
        if "task_types" not in state:  # pickled before the array existed
            self.task_types = np.zeros((self.num_rows, self.capacity), dtype=np.int64)
            for row, graph in enumerate(self.graphs):
                if graph is not None:
                    self.task_types[row, : graph.num_tasks] = graph.task_types
        for row, graph in enumerate(self.graphs):
            if graph is not None:
                token = self._token_graphs.get(id(graph))
                if token is None:
                    token = (int(self._graph_tokens[row]), graph)
                    self._token_graphs[id(graph)] = token
