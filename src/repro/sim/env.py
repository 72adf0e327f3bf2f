"""The scheduling MDP (paper §III-B) as a step-based RL environment.

Decision points: whenever at least one processor is idle and at least one
task is ready, a *current processor* is drawn uniformly at random among the
idle processors that have not yet declined at this instant, and the agent
chooses a ready task for it — or the ∅ action (stay idle until the next
event).  ∅ is masked when no task is running, which would otherwise deadlock
the system (there would be no future event to wake the processor up).

Rewards are 0 everywhere except at the terminal state, where the return is

.. math::

    R = \\frac{\\text{makespan}(HEFT) - \\text{makespan}}{\\text{makespan}(HEFT)}

with HEFT's makespan computed on the same instance under expected durations
(§III-B, eq. 1) — positive iff the agent beat the static baseline.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.graphs.durations import DurationTable
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.noise import NoNoise, NoiseModel
from repro.platforms.resources import Platform
from repro.schedulers.heft import heft_makespan
from repro.sim.engine import Simulation
from repro.sim.kernel import SimKernel
from repro.sim.state import Observation, StateBuilder
from repro.sim.vec_env import step_wave
from repro.utils.seeding import SeedLike, as_generator

GraphSource = Union[TaskGraph, Callable[[np.random.Generator], TaskGraph]]


class ResetResult(NamedTuple):
    """Typed result of :meth:`SchedulingEnv.reset` (the Gym 0.26 shape).

    Unpacks as the protocol's ``obs, info = env.reset(seed=...)`` 2-tuple;
    field access (``result.obs``) is the primary spelling.
    """

    obs: Observation
    """the first decision point of the fresh episode"""
    info: dict
    """episode metadata (``heft_makespan``, ``num_tasks``)"""


class StepResult(NamedTuple):
    """Typed result of :meth:`SchedulingEnv.step`.

    The typed result is the primary API; being a ``NamedTuple`` it also
    unpacks as the documented compatibility view — the historical 4-tuple
    ``obs, reward, done, info = env.step(a)``.  New code should prefer field
    access (``result.done``, ``result.info["makespan"]``).
    """

    obs: Optional[Observation]
    """the next decision point, or ``None`` at the terminal state"""
    reward: float
    done: bool
    info: dict


class SchedulingEnv:
    """Dynamic DAG scheduling environment.

    Parameters
    ----------
    graph:
        Either a fixed :class:`TaskGraph` (the paper trains one agent per
        (kernel, T) instance) or a callable ``rng -> TaskGraph`` sampling a
        new instance per episode (for generalisation studies).
    platform, durations:
        The heterogeneous platform and the expected-duration table.
    noise:
        Duration noise model; default deterministic.
    window:
        Depth ``w`` of the descendant window kept in the state.
    rng:
        Seed/generator for duration sampling and current-processor draws.
    reward_mode:
        ``"terminal"`` is the paper's exact reward (eq. 1): zero everywhere,
        ``(mk_HEFT - mk)/mk_HEFT`` at the end.  ``"dense"`` (default) is the
        telescoped equivalent: each step pays ``-(elapsed time)/mk_HEFT``, so
        the episode return is ``-mk/mk_HEFT`` — the same objective shifted by
        the constant 1, but with per-decision credit assignment.  With
        terminal-only *negative* rewards and γ<1, idling is spuriously
        attractive (it discounts the penalty); the dense form removes that
        pathology and trains far faster, which is why it is the default.
    """

    #: reward modes this environment class understands (subclasses override —
    #: the streaming environment swaps in its multi-job objectives)
    REWARD_MODES = ("terminal", "dense")

    def __init__(
        self,
        graph: GraphSource,
        platform: Platform,
        durations: DurationTable,
        noise: Optional[NoiseModel] = None,
        window: int = 2,
        rng: SeedLike = None,
        reward_mode: str = "dense",
    ) -> None:
        if reward_mode not in self.REWARD_MODES:
            raise ValueError(
                f"reward_mode must be one of {self.REWARD_MODES}, "
                f"got {reward_mode!r}"
            )
        self.reward_mode = reward_mode
        self._graph_source = graph
        self.platform = platform
        self.durations = durations
        self.noise = noise if noise is not None else NoNoise()
        self.rng = as_generator(rng)
        self.state_builder = StateBuilder(durations, window)
        self.sim: Optional[Simulation] = None
        self._passed: Optional[np.ndarray] = None
        self._current_obs: Optional[Observation] = None
        self._baseline_makespan: float = np.nan
        # struct-of-arrays attachment (set by VecSchedulingEnv): when bound,
        # reset() re-initialises row ``_row`` of the shared kernel in place
        # instead of allocating a fresh Simulation per episode
        self._kernel: Optional[SimKernel] = None
        self._row: int = 0

    def attach_kernel(self, kernel: SimKernel, row: int) -> None:
        """Bind this environment to row ``row`` of a shared simulator kernel.

        Subsequent :meth:`reset` calls become masked re-inits of that row, so
        a vectorised wrapper can advance all members through fused kernel
        ops.  Attaching changes *where* the episode state lives, not any
        observable behaviour: the member's simulation is a bit-exact K=1 view
        (see DESIGN.md §11).
        """
        self._kernel = kernel
        self._row = int(row)

    # ------------------------------------------------------------------ #

    @property
    def window(self) -> int:
        return self.state_builder.window

    @property
    def baseline_makespan(self) -> float:
        """HEFT's planned makespan for the current episode's instance."""
        return self._baseline_makespan

    def _sample_graph(self) -> TaskGraph:
        if isinstance(self._graph_source, TaskGraph):
            return self._graph_source
        return self._graph_source(self.rng)

    def reset(self, seed: SeedLike = None) -> ResetResult:
        """Start a new episode; returns ``(obs, info)`` per the Gym 0.26 protocol.

        ``seed`` (optional) re-seeds the environment's RNG stream before the
        episode starts — ``reset(seed=s)`` then replaying the same actions is
        fully reproducible regardless of prior history.  The returned
        :class:`ResetResult` unpacks as ``obs, info``.
        """
        self._begin_episode(seed)
        step_wave([self], [0])
        return ResetResult(self._current_obs, self._reset_info())

    def _begin_episode(self, seed: SeedLike = None) -> None:
        """Start a new episode: sample the graph, (re-)init the simulator
        row, set the HEFT baseline and clear the passes.

        The episode is not yet at a decision point: the decision loop
        (:func:`~repro.sim.vec_env.step_wave`) advances it there, in the same
        waves as the other members it moves.
        """
        if seed is not None:
            self.rng = as_generator(seed)
        graph = self._sample_graph()
        if self._kernel is not None:
            # kernel-backed: masked re-init of this member's row (noise and
            # rng are re-passed every episode — reset(seed=...) swaps the
            # generator object, and the row must follow it)
            if self.sim is not None and self.sim._kernel is self._kernel:
                self.sim.rebind(graph, noise=self.noise, rng=self.rng)
            else:
                self.sim = Simulation._attach(
                    self._kernel, self._row, graph, self.noise, self.rng, None
                )
        else:
            self.sim = Simulation(
                graph, self.platform, self.durations, self.noise, rng=self.rng
            )
        # HEFT plans on expected durations — deterministic per graph, so a
        # fixed-instance env can reuse the plan across episodes.
        baseline = graph.__dict__.get("_cached_heft_baseline")
        if (
            baseline is None
            or baseline[0] is not self.platform
            or baseline[1] is not self.durations
        ):
            baseline = (
                self.platform,
                self.durations,
                heft_makespan(graph, self.platform, self.durations),
            )
            graph.__dict__["_cached_heft_baseline"] = baseline
        self._baseline_makespan = baseline[2]
        self._passed = np.zeros(self.platform.num_processors, dtype=bool)
        self._last_time = 0.0

    def _reset_info(self) -> dict:
        """Episode metadata of the episode :meth:`_begin_episode` started."""
        assert self.sim is not None
        return {
            "heft_makespan": self._baseline_makespan,
            "num_tasks": self.sim.graph.num_tasks,
        }

    def step(self, action: int) -> StepResult:
        """Apply ``action`` to the pending decision.

        ``action`` indexes the current observation's ready tasks; the value
        ``num_ready`` (i.e. the last index) is the ∅ action when
        ``allow_pass`` is true.  Returns a :class:`StepResult` (unpackable as
        the historical ``(obs, reward, done, info)`` 4-tuple) with
        ``obs=None`` at the terminal state.
        """
        step = step_wave([self], [0], [action], final=(0,))
        return StepResult(
            self._current_obs,
            float(step.rewards[0]),
            bool(step.dones[0]),
            step.infos[0],
        )

    # Hooks of the one decision loop (repro.sim.vec_env.step_wave), which
    # drives every member, a standalone env included, while consuming each
    # member's RNG stream in the single-env order: candidates → draw →
    # (batched) build, or before-advance → (batched) advance → after-advance.

    def _decision_candidates(self) -> Optional[np.ndarray]:
        """Processors eligible for a decision now, or ``None`` if the
        simulator must advance first (no ready task, or every idle processor
        already passed at this instant)."""
        sim = self.sim
        assert sim is not None and self._passed is not None
        if not sim.ready.any():
            return None
        candidates = sim.idle_processors()
        candidates = candidates[~self._passed[candidates]]
        return candidates if candidates.size > 0 else None

    def _draw_proc(self, candidates: np.ndarray) -> tuple:
        """Draw the current processor; returns ``(proc, allow_pass)``.

        ∅ is legal while declining cannot deadlock: either a future event
        will re-open decisions or another idle processor is still waiting
        to be asked.
        """
        # ``candidates[integers(size)]`` is ``rng.choice(candidates)``: the
        # same single bounded draw from the stream, without choice's checks
        proc = int(candidates[self.rng.integers(candidates.size)])
        return proc, self._event_pending() or candidates.size > 1

    def _event_pending(self) -> bool:
        """Whether a future event is guaranteed: here, a running task's end."""
        assert self.sim is not None
        return bool(self.sim.running.any())

    def _before_advance(self) -> bool:
        """Prepare the next event; returns whether it is a kernel completion.

        Static episodes have no other events.  Subclasses that do (job
        arrivals) apply them here and return ``False``.
        """
        if not self._event_pending():
            raise RuntimeError(
                "environment deadlock: no pending event and no decision "
                "available — the ∅-action mask should prevent this"
            )
        return True

    def _after_advance(self) -> None:
        """Post-event bookkeeping, once the event is applied."""
        assert self._passed is not None
        self._passed[:] = False  # a new instant: everyone may be asked again

    def _check_action(self, action: int) -> Tuple[Observation, int]:
        """Validate ``action`` against the pending decision; returns the
        decision's observation and the action as an ``int``.

        Only integers are actions (Python or NumPy ints; ``0.5`` is refused,
        not truncated).  Changes no state, so the decision loop can validate
        every member's action before applying any of them.
        """
        current = self._current_obs
        if current is None or self.sim is None:
            raise RuntimeError("call reset() before step()")
        try:
            index = operator.index(action)
        except TypeError:
            raise ValueError(f"action {action!r} is not an integer") from None
        if not 0 <= index < current.num_actions:
            raise ValueError(
                f"action {action} out of range [0, {current.num_actions})"
            )
        return current, index

    def _finish_step(self, next_obs: Optional[Observation]) -> StepResult:
        """Reward/done/info bookkeeping once the next decision is known.

        Called by the decision loop for every stepped member, with ``None``
        when the member's episode has ended.
        """
        sim = self.sim
        assert sim is not None
        self._current_obs = next_obs
        elapsed = sim.time - self._last_time
        self._last_time = sim.time
        if next_obs is None:
            makespan = sim.makespan
            if self.reward_mode == "terminal":
                reward = (self._baseline_makespan - makespan) / self._baseline_makespan
            else:
                reward = -elapsed / self._baseline_makespan
            info = {
                "makespan": makespan,
                "heft_makespan": self._baseline_makespan,
            }
            return StepResult(None, float(reward), True, info)
        if self.reward_mode == "dense":
            return StepResult(
                next_obs, float(-elapsed / self._baseline_makespan), False, {}
            )
        return StepResult(next_obs, 0.0, False, {})


def run_policy(
    env: SchedulingEnv,
    policy: Callable[[Observation], int],
    max_steps: int = 1_000_000,
    seed: SeedLike = None,
) -> dict:
    """Roll one full episode under ``policy``; returns the terminal info dict.

    The one single-environment episode loop: evaluation, inference timing
    and plan extraction all drive their episodes through it.  ``policy``
    maps an observation to an action index; an object with ``decide`` (a
    :class:`~repro.policy.api.Policy`) is driven through that method, and
    its ``reset()``, when it has one, runs after the environment reset and
    before the first decision, so stateful policies (replay cursors, remote
    sessions, env-bound schedulers) restart with the episode.  ``seed`` is
    passed to ``env.reset``.

    Next to the environment's terminal keys the dict carries ``reward`` (the
    last step's reward), ``return`` (the sum over every step, in order) and
    ``actions`` (every action taken, in decision order).  Raises if the
    episode exceeds ``max_steps`` decisions (a runaway-pass guard for buggy
    policies).
    """
    decide = getattr(policy, "decide", policy)
    observation = env.reset(seed=seed).obs
    reset_policy = getattr(policy, "reset", None)
    if callable(reset_policy):
        reset_policy()
    actions = []
    total = 0.0
    for _ in range(max_steps):
        action = int(decide(observation))
        actions.append(action)
        result = env.step(action)
        total += float(result.reward)
        if result.done:
            info = dict(result.info)
            info["reward"] = result.reward
            info["return"] = total
            info["actions"] = tuple(actions)
            return info
        observation = result.obs
    raise RuntimeError(f"episode exceeded {max_steps} decisions")
