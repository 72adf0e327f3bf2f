"""Discrete-event simulator of non-preemptive DAG execution.

Semantics (paper §III):

* each processor runs at most one task at a time, tasks are non-preemptive;
* a task may start only when all its predecessors have completed;
* communications are overlapped with computations and therefore free;
* the *actual* duration of a task is drawn from the platform's noise model
  when the task starts on a specific processor — the scheduler only ever
  sees *expected* durations.

The simulator is deliberately decision-free: dynamic schedulers (MCT, the RL
agent) drive it through :meth:`Simulation.start` / :meth:`Simulation.advance`,
and the static executor replays a fixed HEFT plan through the same interface.

Since the struct-of-arrays refactor (DESIGN.md §11) the mutable episode state
lives in a :class:`~repro.sim.kernel.SimKernel` — ``(K, n)`` task arrays and
``(K, p)`` processor arrays holding K episodes side by side.  A
:class:`Simulation` is a **row view** over one kernel row: its public arrays
(``ready``, ``proc_task``, …) are NumPy views into the kernel's rows, its
transitions delegate to the kernel's per-row ops, and a standalone
``Simulation(...)`` simply owns a private K=1 kernel — so the entire
historical API (and its bit-exact behaviour) is preserved.  The members of a
vectorised environment are views over rows of one shared kernel, which the
environments' decision loop (:func:`repro.sim.vec_env.step_wave`) starts and
advances many rows at a time with ``start_many``/``advance_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.comm import CommunicationModel, NoComm
from repro.platforms.noise import NoiseModel, NoNoise
from repro.platforms.resources import Platform
from repro.sim.kernel import IDLE, SimKernel
from repro.utils.seeding import SeedLike, as_generator

__all__ = ["IDLE", "ScheduledTask", "Simulation"]


@dataclass(frozen=True)
class ScheduledTask:
    """One completed trace entry: task ran on proc during [start, finish)."""

    task: int
    proc: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


#: Simulation attributes that alias kernel rows — rebuilt by ``_sync_views``
#: (and therefore dropped from pickles: a pickled NumPy view silently turns
#: into an independent copy, which would disconnect the view from its kernel)
_VIEW_ATTRS = (
    "remaining_preds",
    "ready",
    "running",
    "finished",
    "completion_time",
    "start_time",
    "executed_on",
    "proc_task",
    "proc_finish",
)


class Simulation:
    """Executable state of one scheduling episode (a kernel row view).

    Parameters
    ----------
    graph, platform, durations:
        The problem instance: task DAG, processors, expected durations.
    noise:
        Duration noise model (default: deterministic).
    rng:
        Seed or generator for duration draws.
    comm:
        Optional communication model (default: the paper's zero-cost
        assumption).  When set, a task launched on processor p stalls p
        until the outputs of predecessors executed elsewhere have arrived.

    The constructor builds a private K=1 :class:`~repro.sim.kernel.SimKernel`;
    the members of a vectorised environment share one K-row kernel instead
    and are created through :meth:`_attach`.  Either way the public surface is the
    historical one: ``ready``/``running``/… are (n,) arrays (row views),
    ``proc_task``/``proc_finish`` are (p,) arrays, and transitions behave
    bit-identically to the pre-kernel per-object engine.
    """

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        durations: DurationTable,
        noise: Optional[NoiseModel] = None,
        rng: SeedLike = None,
        comm: Optional[CommunicationModel] = None,
    ) -> None:
        kernel = SimKernel(platform, durations, 1)
        self._kernel = kernel
        self._row = 0
        self._trace_cache: Optional[tuple] = None
        kernel.init_row(
            0,
            graph,
            noise=noise if noise is not None else NoNoise(),
            rng=as_generator(rng),
            comm=comm if comm is not None else NoComm(),
        )
        kernel.attach_view(self)
        self._sync_views()

    @classmethod
    def _attach(
        cls,
        kernel: SimKernel,
        row: int,
        graph: TaskGraph,
        noise: Optional[NoiseModel],
        rng: SeedLike,
        comm: Optional[CommunicationModel],
    ) -> "Simulation":
        """Create a view over row ``row`` of a shared kernel (vec members)."""
        self = cls.__new__(cls)
        self._kernel = kernel
        self._row = int(row)
        self._trace_cache = None
        kernel.init_row(
            self._row,
            graph,
            noise=noise if noise is not None else NoNoise(),
            rng=as_generator(rng),
            comm=comm if comm is not None else NoComm(),
        )
        kernel.attach_view(self)
        self._sync_views()
        return self

    def rebind(
        self,
        graph: TaskGraph,
        noise: Optional[NoiseModel] = None,
        rng: SeedLike = None,
        comm: Optional[CommunicationModel] = None,
    ) -> None:
        """Re-initialise this view's row for a fresh episode of ``graph``.

        The vectorised auto-reset path: a masked re-init of one kernel row
        (other rows mid-episode are untouched).  ``None`` arguments keep the
        row's current noise/rng/comm objects — the member's RNG stream
        continues across episodes exactly like the historical
        construct-a-new-``Simulation`` reset did.
        """
        self._kernel.init_row(
            self._row,
            graph,
            noise=noise,
            rng=None if rng is None else as_generator(rng),
            comm=comm,
        )
        self._trace_cache = None
        self._sync_views()

    def _sync_views(self) -> None:
        """Re-point the public arrays at the kernel's (possibly new) buffers."""
        kernel, row = self._kernel, self._row
        n = int(kernel.n_tasks[row])
        self.remaining_preds = kernel.remaining_preds[row, :n]
        self.ready = kernel.ready[row, :n]
        self.running = kernel.running[row, :n]
        self.finished = kernel.finished[row, :n]
        self.completion_time = kernel.completion_time[row, :n]
        self.start_time = kernel.start_time[row, :n]
        self.executed_on = kernel.executed_on[row, :n]
        self.proc_task = kernel.proc_task[row]
        self.proc_finish = kernel.proc_finish[row]

    # ------------------------------------------------------------------ #
    # shared-object accessors (single source of truth: the kernel row)
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> TaskGraph:
        graph = self._kernel.graphs[self._row]
        assert graph is not None
        return graph

    @property
    def platform(self) -> Platform:
        return self._kernel.platform

    @property
    def durations(self) -> DurationTable:
        return self._kernel.durations

    @property
    def noise(self) -> NoiseModel:
        return self._kernel.noises[self._row]

    @noise.setter
    def noise(self, value: NoiseModel) -> None:
        self._kernel.set_noise(self._row, value)

    @property
    def rng(self) -> np.random.Generator:
        rng = self._kernel.rngs[self._row]
        assert rng is not None
        return rng

    @rng.setter
    def rng(self, value: SeedLike) -> None:
        self._kernel.rngs[self._row] = as_generator(value)

    @property
    def comm(self) -> CommunicationModel:
        return self._kernel.comms[self._row]

    @comm.setter
    def comm(self, value: CommunicationModel) -> None:
        self._kernel.set_comm(self._row, value)

    @property
    def time(self) -> float:
        """Current simulation time of this episode."""
        return float(self._kernel.time[self._row])

    @time.setter
    def time(self, value: float) -> None:
        self._kernel.time[self._row] = value

    @property
    def trace(self) -> List[ScheduledTask]:
        """Completed trace entries, in completion order (lazily materialised).

        The kernel records the trace as arrays (task order + per-task
        start/finish/processor); the historical list-of-:class:`ScheduledTask`
        is built on first access and cached until further completions land.
        """
        kernel, row = self._kernel, self._row
        count = int(kernel.trace_len[row])
        cache = self._trace_cache
        if cache is None or cache[0] != count:
            tasks = kernel.trace_tasks[row, :count]
            entries = [
                ScheduledTask(
                    int(t),
                    int(kernel.executed_on[row, t]),
                    float(kernel.start_time[row, t]),
                    float(kernel.completion_time[row, t]),
                )
                for t in tasks
            ]
            cache = (count, entries)
            self._trace_cache = cache
        return cache[1]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """All tasks completed."""
        return bool(self._kernel.num_unfinished[self._row] == 0)

    @property
    def makespan(self) -> float:
        """Completion time of the last task (valid once :attr:`done`)."""
        if not self.done:
            raise RuntimeError("makespan is undefined before the episode ends")
        return float(np.nanmax(self.completion_time))

    def ready_tasks(self) -> np.ndarray:
        """Tasks whose predecessors finished and that are not yet started."""
        return np.flatnonzero(self.ready)

    def running_tasks(self) -> np.ndarray:
        """Tasks currently executing."""
        return np.flatnonzero(self.running)

    def idle_processors(self) -> np.ndarray:
        """Processors with no task assigned."""
        return np.flatnonzero(self.proc_task == IDLE)

    def busy_processors(self) -> np.ndarray:
        """Processors currently executing a task."""
        return np.flatnonzero(self.proc_task != IDLE)

    def expected_duration(self, task: int, proc: int) -> float:
        """Expected duration of ``task`` on ``proc`` (what schedulers see)."""
        return self.durations.expected(
            int(self.graph.task_types[task]), self.platform.type_of(proc)
        )

    def expected_remaining(self, proc: int) -> float:
        """Expected remaining time of the task running on ``proc``.

        Based on *expected* durations (a scheduler cannot observe the sampled
        actual duration); clamped at 0 when the task overruns its estimate.
        Returns 0.0 for an idle processor.
        """
        task = int(self.proc_task[proc])
        if task == IDLE:
            return 0.0
        exp = self.expected_duration(task, proc)
        return max(0.0, float(self.start_time[task]) + exp - self.time)

    def expected_remaining_many(self, procs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`expected_remaining` over ``procs`` (idle → 0.0).

        One table gather instead of a Python loop — state extraction calls
        this for every busy processor at every scheduling decision.
        """
        procs = np.asarray(procs, dtype=np.int64)
        tasks = self.proc_task[procs]
        out = np.zeros(procs.size, dtype=np.float64)
        busy = tasks != IDLE
        if busy.any():
            t = tasks[busy]
            exp = self.durations.table[
                self.graph.task_types[t], self.platform.resource_types[procs[busy]]
            ]
            out[busy] = np.maximum(0.0, self.start_time[t] + exp - self.time)
        return out

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #

    def start(self, task: int, proc: int) -> float:
        """Begin executing ``task`` on ``proc`` now; returns the actual duration.

        The actual duration is sampled from the noise model; the caller does
        not see it through the scheduling API (only through the trace after
        completion), preserving the paper's information model.
        """
        return self._kernel.start_row(self._row, task, proc)

    def advance(self) -> np.ndarray:
        """Jump to the next task-completion event; returns the freed processors.

        All tasks finishing at the same instant are completed together.
        Raises ``RuntimeError`` when nothing is running (a scheduler bug:
        either the episode is done or a decision is required first).
        """
        return self._kernel.advance_row(self._row)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def check_trace(self) -> None:
        """Verify the executed trace against the scheduling invariants.

        * every task appears exactly once;
        * precedence: each task starts no earlier than all predecessors end;
        * exclusivity: intervals on one processor do not overlap;
        * makespan equals the latest finish time.

        Raises ``AssertionError`` on violation.  Used by tests and by the
        property-based suite; cheap enough to run after every episode.  All
        four checks are array reductions over the kernel's trace arrays —
        no per-entry Python loop — with the historical assertion messages.
        """
        assert self.done, "check_trace requires a completed episode"
        kernel, row = self._kernel, self._row
        count = int(kernel.trace_len[row])
        tasks = kernel.trace_tasks[row, :count]
        n = self.graph.num_tasks
        starts = self.start_time
        finishes = self.completion_time
        seen = np.bincount(tasks, minlength=n) if count else np.zeros(n, np.int64)
        traced_s, traced_f = starts[tasks], finishes[tasks]
        assert bool(((traced_f >= traced_s) & (traced_s >= 0.0)).all())
        assert (seen == 1).all(), "each task must execute exactly once"

        edges = self.graph.edges
        if len(edges):
            violated = starts[edges[:, 1]] < finishes[edges[:, 0]] - 1e-9
            if violated.any():
                u, v = edges[int(np.argmax(violated))]
                raise AssertionError(
                    f"precedence violated: {v} started before {u} finished"
                )

        # exclusivity: sort all intervals by (proc, start, finish) — the same
        # per-processor (start, finish) tuple order the dict-of-lists built —
        # and compare each interval with its predecessor on the same processor
        procs = self.executed_on
        order = np.lexsort((finishes, starts, procs))
        same_proc = procs[order][1:] == procs[order][:-1]
        gap_ok = starts[order][1:] >= finishes[order][:-1] - 1e-9
        assert bool(
            (gap_ok | ~same_proc).all()
        ), "overlapping tasks on one processor"

        assert abs(self.makespan - float(finishes.max())) < 1e-9

    # ------------------------------------------------------------------ #
    # pickling — views must be rebuilt, not copied
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        state = {
            k: v for k, v in self.__dict__.items() if k not in _VIEW_ATTRS
        }
        state["_trace_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # the kernel pickles with an empty view list (avoiding a cycle);
        # every restored view re-registers itself and re-aliases its row
        self._kernel.attach_view(self)
        self._sync_views()
