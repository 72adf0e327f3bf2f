"""Baseline schedulers: HEFT (static), MCT (dynamic), and extended baselines.

The public entry points are the ``run_*`` functions, each taking a fresh
:class:`repro.sim.engine.Simulation` and returning the achieved makespan, and
the name registry — :func:`get` resolves a scheduler by name for the
CLI/eval harness and :func:`available` lists the options.
"""

from repro.schedulers.base import (
    DynamicScheduler,
    EnvBoundSchedulerPolicy,
    QueueScheduler,
    CompletionEstimator,
    run_dynamic,
    run_queued,
)
from repro.schedulers.heft import (
    StaticSchedule,
    upward_rank,
    heft_schedule,
    heft_makespan,
)
from repro.schedulers.static_executor import StaticOrderScheduler, run_static, run_heft
from repro.schedulers.mct import MCTScheduler, run_mct
from repro.schedulers.listsched import (
    RandomScheduler,
    GreedyScheduler,
    RankPriorityScheduler,
    run_random,
    run_greedy,
    run_rank_priority,
)
from repro.schedulers.batch import (
    MinMinScheduler,
    MaxMinScheduler,
    run_minmin,
    run_maxmin,
)
from repro.schedulers.sufferage import (
    SufferageScheduler,
    FIFOScheduler,
    run_sufferage,
    run_fifo,
)
from repro.schedulers.peft import (
    optimistic_cost_table,
    peft_schedule,
    run_peft,
)
from repro.schedulers.online import (
    OnlineHEFTScheduler,
    OnlineMCTScheduler,
    OnlineSufferageScheduler,
    run_online_heft,
    run_online_mct,
    run_online_sufferage,
)

from repro.schedulers.registry import (
    SchedulerEntry,
    available,
    entries,
    get,
    get_entry,
    register,
)

# Built-in schedulers register themselves via the ``@register("name")``
# decorator in their defining modules (imported above), so registration lives
# next to the scheduler code; this package only re-exports the registry API.


__all__ = [
    "DynamicScheduler",
    "EnvBoundSchedulerPolicy",
    "QueueScheduler",
    "CompletionEstimator",
    "run_dynamic",
    "run_queued",
    "StaticSchedule",
    "upward_rank",
    "heft_schedule",
    "heft_makespan",
    "StaticOrderScheduler",
    "run_static",
    "run_heft",
    "MCTScheduler",
    "run_mct",
    "RandomScheduler",
    "GreedyScheduler",
    "RankPriorityScheduler",
    "run_random",
    "run_greedy",
    "run_rank_priority",
    "MinMinScheduler",
    "MaxMinScheduler",
    "run_minmin",
    "run_maxmin",
    "SufferageScheduler",
    "FIFOScheduler",
    "run_sufferage",
    "run_fifo",
    "optimistic_cost_table",
    "peft_schedule",
    "run_peft",
    "OnlineHEFTScheduler",
    "OnlineMCTScheduler",
    "OnlineSufferageScheduler",
    "run_online_heft",
    "run_online_mct",
    "run_online_sufferage",
    "SchedulerEntry",
    "available",
    "entries",
    "get",
    "get_entry",
    "register",
]
