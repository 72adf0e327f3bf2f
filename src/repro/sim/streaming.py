"""Streaming multi-job scheduling: jobs arrive over time on one platform.

READYS (§III) schedules one DAG to completion; the Decima-style *online*
setting instead feeds the platform a stream of jobs — each a DAG drawn from
a :class:`~repro.graphs.workloads.Workload` — arriving at instants given by
a pluggable :class:`ArrivalProcess` (Poisson or trace-driven).  All live
DAGs share the heterogeneous platform, the agent picks among ready tasks
*across* jobs, and the objective moves from makespan to mean job completion
time (JCT) or slowdown.

Mechanics: at reset the whole episode's job sequence and arrival instants
are sampled, the jobs are packed into **one** disjoint-union
:class:`~repro.graphs.taskgraph.TaskGraph`, and the episode runs through
the ordinary struct-of-arrays machinery.  Arrival gating is a pure ready-set
mask: the roots of a not-yet-arrived job are cleared after row init and
re-released when the clock reaches the job's arrival.  The environment's
``_before_advance`` hook picks the next event, ``min(next completion, next
arrival)``; an arrival between completions is just a manual clock write plus
a root release (the kernel is untouched).  When both coincide, the
completion event is processed first.  The hooks are the whole difference
from a static member, so a :class:`VecStreamingEnv` steps through the same
fused wave loop as any other vec env.

Reward modes (all dense except ``makespan``; see DESIGN.md §14):

* ``jct`` — each interval ``dt`` pays ``-dt · |live jobs| / Σ ideal_j``, so
  the episode return is ``-Σ JCT_j / Σ ideal_j`` (the integral of the live
  count **is** the summed JCT);
* ``slowdown`` — each interval pays ``-dt · Σ_{j live} (1/ideal_j) / J``,
  so the return is minus the mean per-job slowdown ``JCT_j / ideal_j``;
* ``makespan`` — terminal ``(Σ ideal_j - makespan) / Σ ideal_j``, the
  streaming analogue of the paper's eq. 1.

``ideal_j`` is job j's HEFT makespan on the empty platform — the natural
per-job normaliser (a job's JCT can still exceed it under contention, which
is exactly what slowdown measures).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graphs.taskgraph import TaskGraph
from repro.graphs.workloads import Workload
from repro.platforms.noise import NoiseModel
from repro.platforms.resources import Platform
from repro.schedulers.heft import heft_makespan
from repro.sim.env import SchedulingEnv, StepResult
from repro.sim.kernel import IDLE
from repro.sim.state import Observation, StateBuilder
from repro.sim.vec_env import VecSchedulingEnv
from repro.utils.seeding import SeedLike

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "TraceArrivals",
    "make_arrival",
    "JobStateBuilder",
    "StreamingSchedulingEnv",
    "VecStreamingEnv",
    "disjoint_union",
]


# --------------------------------------------------------------------- #
# arrival processes
# --------------------------------------------------------------------- #


class ArrivalProcess:
    """Distribution over job arrival instants.

    Stateless by design: :meth:`times` draws (or returns) the full arrival
    sequence of one episode, so an environment can re-sample every reset
    from its own RNG stream and a process object can be shared between the
    members of a vectorised environment.
    """

    def times(self, rng: np.random.Generator, num_jobs: int) -> np.ndarray:
        """Non-decreasing (num_jobs,) arrival instants; first at t=0 unless
        the process says otherwise (a trace may start later)."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: job 0 at t=0, then exponential inter-arrival gaps.

    ``rate`` is in jobs per millisecond (durations are milliseconds).  The
    first job arriving at 0 keeps the episode start a decision point, like
    the static environment.
    """

    def __init__(self, rate: float = 0.002) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def times(self, rng: np.random.Generator, num_jobs: int) -> np.ndarray:
        if num_jobs < 1:
            raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
        out = np.zeros(num_jobs, dtype=np.float64)
        if num_jobs > 1:
            out[1:] = np.cumsum(rng.exponential(1.0 / self.rate, num_jobs - 1))
        return out

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate:g})"


class TraceArrivals(ArrivalProcess):
    """Deterministic arrivals from an explicit instant list (or a file).

    Consumes **no** randomness — a fixed ``(seed, trace)`` pair therefore
    pins the whole episode, which is what the determinism and parity suites
    rely on.
    """

    def __init__(self, times: Sequence[float]) -> None:
        instants = tuple(float(t) for t in times)
        if not instants:
            raise ValueError("a trace needs at least one arrival instant")
        if any(t < 0 for t in instants):
            raise ValueError(f"arrival instants must be >= 0, got {instants}")
        if any(b < a for a, b in zip(instants, instants[1:])):
            raise ValueError(f"trace must be non-decreasing, got {instants}")
        self.instants = instants

    @property
    def num_jobs(self) -> int:
        return len(self.instants)

    @classmethod
    def from_file(cls, path: str) -> "TraceArrivals":
        """Parse a trace file: one arrival instant per line.

        Blank lines and ``#`` comments are skipped.
        """
        instants: List[float] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    instants.append(float(text))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: not an arrival instant: {text!r}"
                    ) from None
        if not instants:
            raise ValueError(f"trace file {path!r} contains no arrival instants")
        return cls(instants)

    def times(self, rng: np.random.Generator, num_jobs: int) -> np.ndarray:
        if num_jobs > len(self.instants):
            raise ValueError(
                f"trace holds {len(self.instants)} arrivals, {num_jobs} requested"
            )
        return np.asarray(self.instants[:num_jobs], dtype=np.float64)

    def __repr__(self) -> str:
        return f"TraceArrivals({list(self.instants)})"


def make_arrival(
    name: str,
    rate: float = 0.002,
    trace: Sequence[float] = (),
    trace_file: Optional[str] = None,
) -> Optional[ArrivalProcess]:
    """Arrival process by name: ``none`` (→ ``None``), ``poisson``, ``trace``."""
    if name == "none":
        return None
    if name == "poisson":
        return PoissonArrivals(rate)
    if name == "trace":
        if trace_file is not None:
            return TraceArrivals.from_file(trace_file)
        return TraceArrivals(trace)
    raise KeyError(
        f"unknown arrival process {name!r}; options: ['none', 'poisson', 'trace']"
    )


# --------------------------------------------------------------------- #
# multi-job graph assembly
# --------------------------------------------------------------------- #


def disjoint_union(jobs: Sequence[TaskGraph]) -> "tuple[TaskGraph, np.ndarray, np.ndarray]":
    """Pack per-job DAGs into one graph; returns ``(graph, job_of, offsets)``.

    ``job_of[t]`` is the job index of combined task ``t``; ``offsets[j]`` is
    the id offset of job j's tasks.  All jobs must share one type vocabulary
    (the workload registry guarantees it).
    """
    if not jobs:
        raise ValueError("need at least one job")
    type_names = jobs[0].type_names
    for g in jobs[1:]:
        if g.type_names != type_names:
            raise ValueError(
                "jobs disagree on the kernel vocabulary: "
                f"{g.type_names} vs {type_names}"
            )
    sizes = np.asarray([g.num_tasks for g in jobs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    edges = [g.edges + off for g, off in zip(jobs, offsets) if len(g.edges)]
    all_edges = (
        np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    )
    graph = TaskGraph(
        int(sizes.sum()),
        all_edges,
        np.concatenate([g.task_types for g in jobs]),
        type_names,
        name=f"stream_{len(jobs)}jobs",
    )
    job_of = np.repeat(np.arange(len(jobs), dtype=np.int64), sizes)
    return graph, job_of, offsets


# --------------------------------------------------------------------- #
# job-aware observations
# --------------------------------------------------------------------- #


class JobStateBuilder(StateBuilder):
    """:class:`StateBuilder` appending per-node job attribution columns.

    Two trailing columns beyond the base layout:

    * **job id**, normalised to ``(job+1)/num_jobs`` — distinguishes the
      components of the disjoint union (0 is reserved so padding/terminal
      rows read as "no job");
    * **arrival age**, ``(now - arrived_at) / mean ideal JCT`` — how long the
      node's job has been in the system, the signal a slowdown-minimising
      policy needs to favour old jobs.

    The base observation is untouched (same window, adjacency, action set);
    ``Observation.extra_node_features`` records the appended width so
    column-from-the-end consumers stay correct.
    """

    extra_node_features = 2
    _TEMPLATE_KEY = "_cached_job_feature_template"

    def _make_template(self, graph: TaskGraph) -> "tuple[np.ndarray, int]":
        """The base template plus the job-id column and, where the arrival
        age goes, each node's arrival instant (:meth:`_age_scale`)."""
        base, raw_width = super()._make_template(graph)
        meta = graph.__dict__["_streaming_jobs"]
        jobs = meta["job_of"]
        template = np.empty((base.shape[0], base.shape[1] + 2), dtype=np.float64)
        template[:, :-2] = base
        template[:, -2] = (jobs + 1) / len(meta["arrivals"])
        template[:, -1] = meta["arrivals"][jobs]
        return template, raw_width

    def _age_scale(self, graph: TaskGraph) -> float:
        return graph.__dict__["_streaming_jobs"]["mean_ideal"]


# --------------------------------------------------------------------- #
# the streaming environment
# --------------------------------------------------------------------- #


class StreamingSchedulingEnv(SchedulingEnv):
    """Multi-job scheduling MDP with online job arrivals.

    Parameters
    ----------
    workload:
        The job distribution (a :class:`~repro.graphs.workloads.Workload`):
        per-episode job DAGs are drawn from ``workload.sample`` and priced
        with ``workload.durations``.
    platform:
        The shared heterogeneous platform.
    arrival:
        The :class:`ArrivalProcess`; default Poisson.
    num_jobs:
        Jobs per episode (the job-count horizon).  ``None`` adopts the trace
        length for :class:`TraceArrivals`.
    horizon_time:
        Optional time horizon: arrivals sampled after it are dropped, so the
        episode ends once every job admitted before the horizon completes.
    reward_mode:
        ``jct`` (default), ``slowdown`` or ``makespan`` — see the module
        docstring for the exact definitions.

    The remaining parameters match :class:`SchedulingEnv`.  Episodes end
    when every admitted job has completed; terminal ``info`` reports
    ``jcts``/``slowdowns`` per job plus their means alongside the combined
    ``makespan``.
    """

    REWARD_MODES = ("jct", "slowdown", "makespan")

    def __init__(
        self,
        workload: Workload,
        platform: Platform,
        arrival: Optional[ArrivalProcess] = None,
        num_jobs: Optional[int] = None,
        noise: Optional[NoiseModel] = None,
        window: int = 2,
        rng: SeedLike = None,
        reward_mode: str = "jct",
        horizon_time: Optional[float] = None,
    ) -> None:
        if arrival is None:
            arrival = PoissonArrivals()
        if num_jobs is None:
            if isinstance(arrival, TraceArrivals):
                num_jobs = arrival.num_jobs
            else:
                raise ValueError(
                    "num_jobs is required unless the arrival process is a "
                    "trace (whose length defines it)"
                )
        if num_jobs < 1:
            raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
        if horizon_time is not None and horizon_time <= 0:
            raise ValueError(f"horizon_time must be > 0, got {horizon_time}")
        self.workload = workload
        self.arrival = arrival
        self.num_jobs = int(num_jobs)
        self.horizon_time = horizon_time
        super().__init__(
            workload.sample,
            platform,
            workload.durations,
            noise,
            window=window,
            rng=rng,
            reward_mode=reward_mode,
        )
        # swap in the job-aware builder (same width contract + 2 columns)
        self.state_builder = JobStateBuilder(workload.durations, window)
        self._pending_init = False
        self._episode_jobs = 0
        self._arrival_times = np.zeros(0, dtype=np.float64)
        self._job_of = np.zeros(0, dtype=np.int64)
        self._job_sizes = np.zeros(0, dtype=np.int64)
        self._job_roots: List[np.ndarray] = []
        self._job_ideals = np.zeros(0, dtype=np.float64)
        self._ideal_sum = np.nan
        self._released = 0
        self._jct = np.zeros(0, dtype=np.float64)
        self._cost_accum = 0.0
        self._event_start = 0.0  # clock before the event, for _after_advance

    # -- episode assembly ------------------------------------------------ #

    def _sample_graph(self) -> TaskGraph:
        """Draw the episode: arrival instants first, then one job per arrival.

        The fixed draw order (arrivals before jobs, jobs in arrival order)
        is part of the determinism contract: a fixed ``(seed, trace)`` pair
        yields a bit-identical job sequence everywhere.
        """
        times = self.arrival.times(self.rng, self.num_jobs)
        if self.horizon_time is not None:
            keep = times <= self.horizon_time
            if not keep.any():
                raise RuntimeError(
                    f"no job arrives before horizon_time={self.horizon_time}"
                )
            times = times[keep]
        jobs = [self.workload.sample(self.rng) for _ in range(times.size)]
        graph, job_of, offsets = disjoint_union(jobs)

        ideals = np.asarray(
            [heft_makespan(g, self.platform, self.durations) for g in jobs],
            dtype=np.float64,
        )
        self._episode_jobs = len(jobs)
        self._arrival_times = times
        self._job_of = job_of
        self._job_sizes = np.asarray([g.num_tasks for g in jobs], dtype=np.int64)
        self._job_roots = [
            g.roots() + off for g, off in zip(jobs, offsets)
        ]
        self._job_ideals = ideals
        self._ideal_sum = float(ideals.sum())
        self._released = 0
        self._jct = np.full(len(jobs), np.nan)
        self._cost_accum = 0.0
        self._pending_init = True

        arrivals_frozen = times.copy()
        arrivals_frozen.setflags(write=False)
        graph.__dict__["_streaming_jobs"] = {
            "job_of": job_of,
            "arrivals": arrivals_frozen,
            "ideals": ideals,
            "mean_ideal": float(ideals.mean()),
            "sizes": self._job_sizes,
        }
        # Σ ideal_j is the episode's reward normaliser; pre-seeding the HEFT
        # baseline slot keeps the base reset from planning static HEFT over
        # the whole (partly unarrived) union, which would be neither cheap
        # nor meaningful as a streaming reference.
        graph.__dict__["_cached_heft_baseline"] = (
            self.platform, self.durations, self._ideal_sum,
        )
        return graph

    def _init_episode_gating(self) -> None:
        """Clear every job's roots from the fresh ready set, release due jobs."""
        sim = self.sim
        assert sim is not None
        for roots in self._job_roots:
            sim.ready[roots] = False
        self._release_due()
        self._pending_init = False

    def _release_due(self) -> None:
        """Admit every job whose arrival instant has been reached."""
        sim = self.sim
        assert sim is not None
        now = sim.time
        while (
            self._released < self._episode_jobs
            and self._arrival_times[self._released] <= now
        ):
            sim.ready[self._job_roots[self._released]] = True
            self._released += 1

    # -- reward accounting ---------------------------------------------- #

    def _accrue(self, t0: float, t1: float) -> None:
        """Charge the live-job cost of the interval [t0, t1).

        Called *before* completions at ``t1`` are recorded and before jobs
        arriving at ``t1`` are released, so the live set is exactly the jobs
        in the system during the interval.
        """
        dt = t1 - t0
        if dt <= 0 or self.reward_mode == "makespan":
            return
        live = np.isnan(self._jct[: self._released])
        if self.reward_mode == "jct":
            self._cost_accum += dt * int(live.sum()) / self._ideal_sum
        else:  # slowdown
            rates = 1.0 / self._job_ideals[: self._released][live]
            self._cost_accum += dt * float(rates.sum()) / self._episode_jobs

    def _record_completions(self) -> None:
        """Stamp the JCT of every job whose last task just finished."""
        sim = self.sim
        assert sim is not None
        finished_counts = np.bincount(
            self._job_of[sim.finished], minlength=self._episode_jobs
        )
        complete = finished_counts == self._job_sizes
        newly = complete & np.isnan(self._jct)
        if newly.any():
            self._jct[newly] = sim.time - self._arrival_times[newly]

    # -- decision loop --------------------------------------------------- #

    def _event_pending(self) -> bool:
        """A pending arrival is a guaranteed future event too, so it also
        legalises ∅ with nothing running and no other processor to ask."""
        return super()._event_pending() or self._released < self._episode_jobs

    def _advance_to_decision(self) -> "Optional[tuple[int, bool]]":
        if self._pending_init:
            self._init_episode_gating()
        return super()._advance_to_decision()

    def _before_advance(self) -> bool:
        """The next event is ``min(next completion, next arrival)``.

        On a tie the completion goes first: a task finishing exactly at an
        arrival instant frees its processor before the new job is offered,
        matching the event order of a real runtime.  An arrival is a plain
        clock write; the kernel is untouched.
        """
        super()._before_advance()
        sim = self.sim
        assert sim is not None
        self._event_start = sim.time
        next_arrival = (
            float(self._arrival_times[self._released])
            if self._released < self._episode_jobs
            else np.inf
        )
        running = sim.proc_task != IDLE
        t_complete = float(sim.proc_finish[running].min()) if running.any() else np.inf
        if t_complete <= next_arrival:
            return True
        sim.time = next_arrival
        return False

    def _after_advance(self) -> None:
        """Charge the interval, stamp finished jobs, admit due arrivals."""
        sim = self.sim
        assert sim is not None
        self._accrue(self._event_start, sim.time)
        self._record_completions()  # a no-op after an arrival
        self._release_due()
        super()._after_advance()

    def _reset_info(self) -> dict:
        info = super()._reset_info()
        info["num_jobs"] = self._episode_jobs
        info["arrivals"] = self._arrival_times.tolist()
        return info

    def _finish_step(self, next_obs: Optional[Observation]) -> StepResult:
        sim = self.sim
        assert sim is not None
        self._current_obs = next_obs
        self._last_time = sim.time
        cost = self._cost_accum
        self._cost_accum = 0.0
        if next_obs is not None:
            reward = 0.0 if self.reward_mode == "makespan" else -cost
            return StepResult(next_obs, float(reward), False, {})
        makespan = sim.makespan
        slowdowns = self._jct / self._job_ideals
        if self.reward_mode == "makespan":
            reward = (self._ideal_sum - makespan) / self._ideal_sum
        else:
            reward = -cost
        info = {
            "makespan": makespan,
            "heft_makespan": self._baseline_makespan,
            "num_jobs": self._episode_jobs,
            "completed_jobs": int(np.count_nonzero(~np.isnan(self._jct))),
            "arrivals": self._arrival_times.tolist(),
            "jcts": self._jct.tolist(),
            "slowdowns": slowdowns.tolist(),
            "mean_jct": float(self._jct.mean()),
            "mean_slowdown": float(slowdowns.mean()),
        }
        return StepResult(None, float(reward), True, info)


class VecStreamingEnv(VecSchedulingEnv):
    """K streaming environments stepped in lockstep.

    Members share one :class:`~repro.sim.kernel.SimKernel`: their episode
    state lives in rows of common arrays, auto-reset is a masked row
    re-init, and stepping is the ordinary wave loop of
    :class:`VecSchedulingEnv`.  A member whose next event is a job arrival
    moves its own clock in ``_before_advance`` and sits out that wave's
    ``advance_rows``; members whose next event is a completion advance
    together.  This subclass only checks that every member is streaming.
    """

    def __init__(self, envs: Sequence[SchedulingEnv]) -> None:
        for env in envs:
            if not isinstance(env, StreamingSchedulingEnv):
                raise TypeError(
                    "VecStreamingEnv members must be StreamingSchedulingEnv, "
                    f"got {type(env).__name__}"
                )
        super().__init__(envs)
