"""Replay a static schedule under stochastic durations.

A static plan (e.g. HEFT's) fixes the processor assignment and each
processor's task order at planning time.  During noisy execution the *times*
shift: each processor launches its next planned task as soon as (a) it is
free and (b) the task's predecessors have completed.  This is the standard
way static schedules are executed by runtimes and is what makes them degrade
when σ grows (paper §V-E): a single late task stalls every successor pinned
behind it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.schedulers.base import DynamicScheduler, run_dynamic
from repro.schedulers.heft import StaticSchedule, heft_schedule
from repro.schedulers.registry import register
from repro.sim.engine import Simulation
from repro.utils.seeding import SeedLike


class StaticOrderScheduler(DynamicScheduler):
    """Adapter: replays a :class:`StaticSchedule` through the dynamic driver.

    When a processor becomes idle, it starts the next task of its planned
    order if that task is ready, and otherwise waits — never reordering and
    never stealing another processor's tasks.
    """

    name = "static-replay"
    servable = True

    def __init__(self, schedule: StaticSchedule) -> None:
        self.schedule = schedule
        self._cursor: Optional[np.ndarray] = None

    def reset(self, sim: Simulation) -> None:
        self._cursor = np.zeros(sim.platform.num_processors, dtype=np.int64)

    def reset_observation(self) -> None:
        # the plan itself fixes the processor count — no simulator needed
        self._cursor = np.zeros(len(self.schedule.proc_order), dtype=np.int64)

    def select(self, sim: Simulation, proc: int) -> Optional[int]:
        assert self._cursor is not None, "reset() must run before select()"
        order = self.schedule.proc_order[proc]
        pos = int(self._cursor[proc])
        if pos >= len(order):
            return None
        task = order[pos]
        if sim.ready[task]:
            self._cursor[proc] += 1
            return task
        return None

    def decide_observation(self, observation) -> Optional[int]:
        if self._cursor is None:
            self.reset_observation()
        proc = int(observation.current_proc)
        order = self.schedule.proc_order[proc]
        pos = int(self._cursor[proc])
        if pos >= len(order):
            return None
        task = int(order[pos])
        # ready membership: observation.ready_tasks is the full ready set
        if np.any(np.asarray(observation.ready_tasks) == task):
            self._cursor[proc] += 1
            return task
        return None


def run_static(sim: Simulation, schedule: StaticSchedule, rng: SeedLike = None) -> float:
    """Execute ``schedule`` on ``sim``; returns the achieved makespan."""
    return run_dynamic(sim, StaticOrderScheduler(schedule), rng=rng)


def make_heft_policy(spec=None, rng=None):
    """Policy factory for ``heft``: plan from the spec's instance, then replay.

    HEFT is static — its plan needs the whole graph, which no observation
    carries — so the served form is *spec-bound*: the factory rebuilds the
    (deterministic) instance from the experiment spec, plans once, and wraps
    a :class:`StaticOrderScheduler` whose per-processor cursors advance with
    the served episode.  One factory call per session keeps cursors isolated.
    """
    if spec is None:
        raise ValueError(
            "serving 'heft' needs an experiment spec: the static plan is "
            "computed from the instance, which observations do not carry"
        )
    graph, platform, durations, _noise = spec.make_instance()
    policy = StaticOrderScheduler(
        heft_schedule(graph, platform, durations)
    ).as_policy()
    policy.reset()
    return policy


@register("heft", description="static HEFT plan, replayed dynamically",
          make_policy=make_heft_policy)
def run_heft(sim: Simulation, rng: SeedLike = None) -> float:
    """Plan with HEFT on expected durations, then execute under sim's noise."""
    schedule = heft_schedule(sim.graph, sim.platform, sim.durations)
    return run_static(sim, schedule, rng=rng)
