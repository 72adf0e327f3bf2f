"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. 2002).

HEFT is the paper's *static* reference (§V-C) and the normaliser of the RL
reward (§III-B).  It uses the whole DAG and the expected durations:

1. **Upward rank**: ``rank_u(i) = w̄(i) + max_{j∈succ(i)} rank_u(j)`` with
   ``w̄(i)`` the duration of i averaged over all processors (communication
   costs are zero in the paper's model).
2. **Processor selection**: tasks in decreasing rank order are placed on the
   processor minimising their earliest finish time, with insertion into idle
   gaps of the processor timeline.

The resulting plan is a :class:`StaticSchedule`; under noise it is *replayed*
(same assignment, same per-processor order) by
:mod:`repro.schedulers.static_executor`, which is exactly how a static
schedule degrades when durations drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.comm import CommunicationModel, NoComm
from repro.platforms.resources import Platform


def upward_rank(
    graph: TaskGraph,
    platform: Platform,
    durations: DurationTable,
    comm: Optional[CommunicationModel] = None,
) -> np.ndarray:
    """HEFT upward ranks (zero communication by default, per the paper).

    The per-task weight is the expected duration averaged over *processors*
    (so a 2CPU+2GPU platform weights CPU and GPU times equally, while a
    4-GPU platform uses pure GPU times).  With a communication model, every
    edge contributes the model's mean delay c̄, as in the original HEFT.
    """
    comm = comm if comm is not None else NoComm()
    c_bar = comm.mean_delay()
    per_proc = durations.expected_vector(graph.task_types)  # (n, resource types)
    counts = np.bincount(platform.resource_types, minlength=per_proc.shape[1])
    w = per_proc @ counts / platform.num_processors
    rank = np.zeros(graph.num_tasks, dtype=np.float64)
    for node in graph.topological_order()[::-1]:
        succ = graph.successors(node)
        best_succ = (rank[succ].max() + c_bar) if succ.size else 0.0
        rank[node] = w[node] + best_succ
    return rank


@dataclass
class StaticSchedule:
    """A complete static plan: assignment, order, and planned times."""

    proc_of: np.ndarray
    """processor assigned to each task"""
    start: np.ndarray
    """planned start time of each task"""
    finish: np.ndarray
    """planned finish time of each task"""
    proc_order: List[List[int]]
    """per-processor task order (by planned start time)"""

    @property
    def makespan(self) -> float:
        """Planned makespan (achieved exactly when σ = 0)."""
        return float(self.finish.max())

    def validate(self, graph: TaskGraph) -> None:
        """Check plan consistency: precedence and processor exclusivity."""
        for u, v in graph.edges:
            assert self.start[v] >= self.finish[u] - 1e-9
        for order in self.proc_order:
            for a, b in zip(order, order[1:]):
                assert self.start[b] >= self.finish[a] - 1e-9


def _earliest_slot(
    intervals: List[Tuple[float, float]], ready: float, length: float
) -> float:
    """Earliest start ≥ ``ready`` of a ``length`` slot in a busy-interval list.

    ``intervals`` is sorted by start time.  Implements HEFT's insertion
    policy: a task may fill a gap between already-placed tasks.
    """
    t = ready
    for busy_start, busy_end in intervals:
        if t + length <= busy_start + 1e-12:
            return t
        t = max(t, busy_end)
    return t


def heft_schedule(
    graph: TaskGraph,
    platform: Platform,
    durations: DurationTable,
    comm: Optional[CommunicationModel] = None,
) -> StaticSchedule:
    """Compute the HEFT plan for ``graph`` on ``platform``.

    Ties in rank are broken by task id for determinism.  With a
    communication model, each candidate processor's ready time accounts for
    the arrival of predecessor outputs (original HEFT EFT rule); the default
    is the paper's zero-communication setting.
    """
    comm = comm if comm is not None else NoComm()
    n, p = graph.num_tasks, platform.num_processors
    rank = upward_rank(graph, platform, durations, comm)
    # decreasing rank, stable in task id
    order = np.lexsort((np.arange(n), -rank))

    proc_of = np.full(n, -1, dtype=np.int64)
    start = np.zeros(n, dtype=np.float64)
    finish = np.zeros(n, dtype=np.float64)
    timelines: List[List[Tuple[float, float]]] = [[] for _ in range(p)]

    for task in order:
        preds = graph.predecessors(task)
        best_finish = np.inf
        best = (-1, 0.0)
        for proc in range(p):
            if preds.size:
                ready = max(
                    finish[q] + comm.delay(
                        int(proc_of[q]), proc,
                        platform.type_of(int(proc_of[q])), platform.type_of(proc),
                    )
                    for q in preds
                )
            else:
                ready = 0.0
            length = durations.expected(
                int(graph.task_types[task]), platform.type_of(proc)
            )
            s = _earliest_slot(timelines[proc], ready, length)
            f = s + length
            if f < best_finish - 1e-12:
                best_finish = f
                best = (proc, s)
        proc, s = best
        length = durations.expected(int(graph.task_types[task]), platform.type_of(proc))
        proc_of[task] = proc
        start[task] = s
        finish[task] = s + length
        # insert into the sorted busy list
        timeline = timelines[proc]
        idx = 0
        while idx < len(timeline) and timeline[idx][0] < s:
            idx += 1
        timeline.insert(idx, (s, s + length))

    proc_order: List[List[int]] = []
    for proc in range(p):
        tasks = np.flatnonzero(proc_of == proc)
        proc_order.append(list(tasks[np.argsort(start[tasks], kind="stable")]))

    schedule = StaticSchedule(proc_of, start, finish, proc_order)
    schedule.validate(graph)
    return schedule


def heft_makespan(
    graph: TaskGraph, platform: Platform, durations: DurationTable
) -> float:
    """Planned (σ=0) HEFT makespan, memoised per problem instance.

    Used as the reward normaliser at every episode end.  The memo lives *on
    the graph object* (keyed by platform and by the duration table's
    contents), so its lifetime is exactly the graph's — a global cache keyed
    by ``id()`` would hand out stale values when a collected graph's id is
    reused by a fresh instance (graph factories create one per episode).
    """
    cache: Dict = graph.__dict__.setdefault("_heft_makespan_cache", {})
    key = (hash(platform), durations.table.tobytes())
    if key not in cache:
        cache[key] = heft_schedule(graph, platform, durations).makespan
    return cache[key]
