"""Vectorised scheduling environment: K independent MDPs stepped in lockstep.

Synchronous A2C (and batched greedy evaluation) wants K observations per
network pass; :class:`VecSchedulingEnv` supplies them by holding K
independently-seeded :class:`~repro.sim.env.SchedulingEnv` instances and
stepping them together.  Members are ordinary single environments — they may
differ in graph source and noise draw but must share the platform/duration
structure so one agent's feature dimensions fit every member.

Semantics mirror the classic gym ``VecEnv`` contract:

* :meth:`reset` starts a fresh episode in every member and returns the K
  first observations;
* :meth:`step` applies one action per member and **auto-resets** any member
  whose episode ended, returning the post-reset observation in its slot (the
  terminal ``info`` dict carries the makespan *and* the member's
  ``terminal_observation`` — the gym convention — since the in-slot
  observation already belongs to the next episode).  A K=1 vectorised
  rollout therefore consumes exactly the same RNG stream as the legacy
  single-env loop, which is what makes the vectorised trainer reproduce it
  bit-for-bit.

Since the struct-of-arrays refactor (DESIGN.md §11), compatible members
share one :class:`~repro.sim.kernel.SimKernel`: their episode state lives in
``(K, ·)`` rows of common arrays, and auto-reset is a masked re-init of the
finished rows.  :func:`step_wave` is the one decision loop, and it steps a
standalone :class:`~repro.sim.env.SchedulingEnv` too (as a one-member list).
The chosen tasks start with one ``SimKernel.start_many`` call per kernel.
Then a member at a decision point draws its processor and leaves the loop,
and members waiting on an event advance with one
``SimKernel.advance_rows`` call per kernel; reset and auto-reset members
join the same waves as fresh episodes.  Once every member is at a decision
point, one :func:`repro.sim.state.build_observations` call builds all K
observations, so ``step(...).obs`` and ``reset().obs`` are one
:class:`~repro.sim.state.ObservationBatch` in member order.  The env hooks
``_before_advance``/``_after_advance`` carry what differs between member
types (a streaming member's next event may be a job arrival, which only
moves its clock), and grouping by kernel lets structurally heterogeneous
members, each on a private kernel, run the same loop.  Every member keeps a
private RNG stream, so the loop consumes each stream in exactly the
single-env order and the results are bit-identical to stepping standalone
environments one by one (``tests/sim/test_vec_parity.py``) and to the
frozen per-step digests of ``tests/sim/test_step_digests.py``.  Tracing
does not change the path: a traced step emits one ``decision`` span
(``batch=K``) and the step's one ``state_build`` span.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

import numpy as np

from repro import obs
from repro.sim.kernel import SimKernel
from repro.sim.state import (
    ObservationBatch,
    build_observations,
    observation_feature_dim,
)
from repro.utils.seeding import SeedLike, spawn_generators, spawn_seed_sequences

if TYPE_CHECKING:  # env.py imports the loop from here
    from repro.sim.env import SchedulingEnv


class VecResetResult(NamedTuple):
    """Typed result of :meth:`VecSchedulingEnv.reset` (the Gym 0.26 shape).

    Unpacks as the protocol's ``obs, infos = vec_env.reset(seed=...)``
    2-tuple; ``obs[k]``/``infos[k]`` belong to member ``k`` (``obs`` is one
    :class:`~repro.sim.state.ObservationBatch`).
    """

    obs: ObservationBatch
    infos: List[dict]


class VecStepResult(NamedTuple):
    """Typed result of :meth:`VecSchedulingEnv.step`.

    A ``NamedTuple``, so the historical 4-tuple unpacking
    ``obs, rewards, dones, infos = vec_env.step(a)`` keeps working; new code
    should prefer field access.
    """

    obs: ObservationBatch
    """next decision point per member (post-reset observation when done)"""
    rewards: np.ndarray
    dones: np.ndarray
    infos: List[dict]


def _same_platform(a, b) -> bool:
    return a is b or np.array_equal(a.resource_types, b.resource_types)


def _same_durations(a, b) -> bool:
    return a is b or (
        a.kernel_names == b.kernel_names and np.array_equal(a.table, b.table)
    )


class VecSchedulingEnv:
    """K scheduling environments advanced in lockstep with auto-reset."""

    def __init__(self, envs: Sequence[SchedulingEnv]) -> None:
        if not envs:
            raise ValueError("VecSchedulingEnv needs at least one environment")
        windows = {e.window for e in envs}
        if len(windows) > 1:
            raise ValueError(
                f"member environments disagree on window depth: {sorted(windows)}"
            )
        kernels = {e.durations.num_kernels for e in envs}
        if len(kernels) > 1:
            raise ValueError(
                "member environments disagree on duration-table kernel count "
                f"(observation feature widths would differ): {sorted(kernels)}"
            )
        widths = {
            observation_feature_dim(e.durations.num_kernels)
            + e.state_builder.extra_node_features
            for e in envs
        }
        if len(widths) > 1:
            raise ValueError(
                "member environments disagree on observation feature width "
                f"(extra node-feature columns differ): {sorted(widths)}"
            )
        self.envs: List[SchedulingEnv] = list(envs)
        # Structurally identical members share one struct-of-arrays kernel:
        # member resets become masked row re-inits and step() advances all
        # waiting members per event in one fused array pass.
        self._kernel: Optional[SimKernel] = None
        first = self.envs[0]
        if all(
            _same_platform(e.platform, first.platform)
            and _same_durations(e.durations, first.durations)
            for e in self.envs[1:]
        ):
            self._kernel = SimKernel(
                first.platform, first.durations, len(self.envs)
            )
            for row, env in enumerate(self.envs):
                env.attach_kernel(self._kernel, row)

    @classmethod
    def from_factory(
        cls,
        factory: Callable[[np.random.Generator], SchedulingEnv],
        num_envs: int,
        seed: SeedLike = None,
    ) -> "VecSchedulingEnv":
        """Build K members from ``factory(rng)`` with independent seed streams."""
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        return cls([factory(rng) for rng in spawn_generators(seed, num_envs)])

    # ------------------------------------------------------------------ #

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def window(self) -> int:
        return self.envs[0].window

    @property
    def durations(self):
        return self.envs[0].durations

    @property
    def platform(self):
        return self.envs[0].platform

    @property
    def kernel(self) -> Optional[SimKernel]:
        """The shared simulator kernel, or ``None`` when members are too
        heterogeneous to share one.  Each member then keeps a private
        kernel, and step() advances them one ``advance_rows`` per kernel in
        the same wave loop."""
        return self._kernel

    # ------------------------------------------------------------------ #

    def reset(self, seed: SeedLike = None) -> VecResetResult:
        """Start a new episode in every member; returns ``(obs, infos)``.

        ``seed`` (optional) re-seeds every member before resetting: member
        streams are the K children spawned from the **single**
        :class:`~numpy.random.SeedSequence` built from ``seed`` — never
        ad-hoc per-member offsets — so no two members (or any other consumer
        spawned from the same root elsewhere) can collide on an RNG stream.
        With a shared kernel each member reset is a masked re-init of its
        row, so no episode state is allocated per reset.  The fresh members
        reach their first decision points in one wave loop, and the K first
        observations are built as one batch.
        """
        if seed is not None:
            member_seeds = spawn_seed_sequences(seed, self.num_envs)
            for env, child in zip(self.envs, member_seeds):
                env._begin_episode(seed=child)
        else:
            for env in self.envs:
                env._begin_episode()
        batch = step_wave(self.envs, range(self.num_envs)).obs
        return VecResetResult(batch, [env._reset_info() for env in self.envs])

    def step(self, actions: Sequence[int]) -> VecStepResult:
        """Apply one action per member; auto-reset finished members.

        Returns a :class:`VecStepResult` (unpackable as the historical
        ``(observations, rewards, dones, infos)`` 4-tuple) where
        ``observations[k]`` is the *next decision point* of member k — the
        first observation of a fresh episode when ``dones[k]`` is true — and
        ``infos[k]`` is the member's info dict.  At episode end it carries
        ``"makespan"`` plus ``"terminal_observation"``, the degenerate
        final observation the auto-reset would otherwise drop.
        """
        k = self.num_envs
        if len(actions) != k:
            raise ValueError(f"expected {k} actions, got {len(actions)}")
        return self._step_members(range(k), actions)

    def _step_members(
        self,
        members: Sequence[int],
        actions: Sequence[int],
        final: Collection[int] = (),
    ) -> VecStepResult:
        """:meth:`step` for the ascending ``members`` only, one action each.

        ``rewards``/``dones``/``infos`` align with ``members``.  A member of
        ``final`` whose episode ends is not reset and has no observation, so
        ``obs`` holds the other members in order (``None`` when none is
        left) — what lockstep evaluation with per-member episode quotas
        needs.
        """
        return step_wave(self.envs, members, actions, final)


def step_wave(
    envs: Sequence[SchedulingEnv],
    members: Iterable[int],
    actions: Optional[Sequence[int]] = None,
    final: Collection[int] = (),
) -> VecStepResult:
    """The one decision loop: move ``members`` of ``envs`` to their next
    decision points.

    With ``actions`` (one per member), every action is validated before any
    member changes, the chosen tasks start with one
    :meth:`~repro.sim.kernel.SimKernel.start_many` per kernel and ∅ passes
    are recorded.  Without, the members were just started by
    ``_begin_episode`` (a reset) and only advance.

    Then the wave loop runs.  A member at a decision point draws its
    processor and leaves the loop; members waiting on an event advance
    with one ``advance_rows`` call per kernel; a member whose episode ended
    gets its terminal reward and info and, unless it is in ``final``, is
    reset in place (the info then carries ``terminal_observation``) and
    goes on through the waves as a fresh episode.  Every member consumes
    its own RNG stream in the single-environment order.  Once every member
    has decided, one :func:`~repro.sim.state.build_observations` call
    builds all the observations and sets each member's pending decision.
    A standalone environment steps through here as ``envs=[self]`` with
    itself in ``final``.

    ``rewards``/``dones``/``infos`` align with ``members``; ``obs`` holds
    the members that reached a decision point, in ``members`` order
    (``None`` when none did).
    """
    members = list(members)
    n = len(members)
    tracer = obs.TRACER
    handle = None
    fresh = [actions is None] * n  # the observation opens an episode
    if actions is not None:
        checked = [envs[i]._check_action(a) for i, a in zip(members, actions)]
        if tracer.enabled:
            handle = tracer.begin("decision", batch=n)
        starts: dict = {}
        for i, (current, action) in zip(members, checked):
            env = envs[i]
            ready_tasks = current.ready_tasks
            if action < len(ready_tasks):
                sim = env.sim
                rows, tasks, procs = starts.setdefault(sim._kernel, ([], [], []))
                rows.append(sim._row)
                tasks.append(ready_tasks[action])
                procs.append(current.current_proc)
            else:  # ∅: this processor declines until the next event
                env._passed[current.current_proc] = True
        for kernel, (rows, tasks, procs) in starts.items():
            kernel.start_many(rows, tasks, procs)
    rewards = np.zeros(n, dtype=np.float64)
    dones = np.zeros(n, dtype=bool)
    infos: List[Optional[dict]] = [None] * n
    # positions into ``members`` below.  A member that reaches its decision
    # point is not advanced again in this call, so every observation is
    # built in one batch after the loop: (position, proc, allow_pass)
    decided: List[tuple] = []
    pending = range(n)
    while pending:
        waiting: List[int] = []
        for j in pending:
            env = envs[members[j]]
            if env.sim.done:
                result = env._finish_step(None)
                rewards[j] = result.reward
                dones[j] = True
                infos[j] = result.info
                if members[j] in final:
                    continue
                # stash the terminal observation before the re-init
                # overwrites the row (gym convention); the fresh episode
                # continues the member's own RNG stream
                result.info["terminal_observation"] = (
                    env.state_builder.build_terminal(env.sim)
                )
                env._begin_episode()
                fresh[j] = True
            candidates = env._decision_candidates()
            if candidates is not None:
                decided.append((j, *env._draw_proc(candidates)))
            else:
                waiting.append(j)
        if waiting:
            # one advance_rows per kernel for the members whose next
            # event is a completion; the hooks handle every other event
            by_kernel: dict = {}
            for j in waiting:
                env = envs[members[j]]
                if env._before_advance():
                    by_kernel.setdefault(env.sim._kernel, []).append(env.sim._row)
            for kernel, rows in by_kernel.items():
                kernel.advance_rows(rows)
            for j in waiting:
                envs[members[j]]._after_advance()
        pending = waiting
    batch = None
    if decided:
        decided.sort()  # member order
        order, procs, allows = zip(*decided)
        chosen = [envs[members[j]] for j in order]
        build = None
        if tracer.enabled:
            key = "reset" if actions is None else "batch"
            build = tracer.begin("state_build", **{key: len(order)})
        batch = build_observations(
            [env.state_builder for env in chosen],
            [env.sim for env in chosen],
            procs,
            allows,
        )
        if build is not None:
            tracer.end(build, nodes=int(batch.node_offsets[-1]))
        for j, env, ob in zip(order, chosen, batch):
            if fresh[j]:
                env._current_obs = ob
            else:
                result = env._finish_step(ob)
                rewards[j] = result.reward
                infos[j] = result.info
    if handle is not None:
        tracer.end(handle, done=int(dones.sum()))
    return VecStepResult(batch, rewards, dones, infos)
