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
finished rows.  :meth:`step` has one implementation, a wave loop: a member
at a decision point draws its processor and leaves the loop, and members
waiting on an event advance with one ``SimKernel.advance_rows`` call per
kernel.  Once every member is at a decision point (auto-reset members
included: their reset hook stops at the first decision point), one
:func:`repro.sim.state.build_observations` call builds all K observations,
so ``step(...).obs`` and ``reset().obs`` are one
:class:`~repro.sim.state.ObservationBatch` in member order.  The env hooks
``_before_advance``/``_after_advance`` carry what differs between member
types (a streaming member's next event may be a job arrival, which only
moves its clock), and grouping by kernel lets structurally heterogeneous
members, each on a private kernel, run the same loop.  Every member keeps a
private RNG stream, so the wave loop consumes each stream in exactly the
single-env order and the results are bit-identical to stepping standalone
environments one by one (``tests/sim/test_vec_parity.py``).  Tracing does
not change the path: a traced step emits one ``decision`` span
(``batch=K``) and the step's one ``state_build`` span.
"""

from __future__ import annotations

from typing import Callable, Collection, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.sim.env import SchedulingEnv
from repro.sim.kernel import SimKernel
from repro.sim.state import (
    ObservationBatch,
    build_observations,
    observation_feature_dim,
)
from repro.utils.seeding import SeedLike, spawn_generators, spawn_seed_sequences


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
        row, so no episode state is allocated per reset.  The K first
        observations are built as one batch.
        """
        if seed is not None:
            member_seeds = spawn_seed_sequences(seed, self.num_envs)
            decisions = [
                env._begin_episode(seed=child)
                for env, child in zip(self.envs, member_seeds)
            ]
        else:
            decisions = [env._begin_episode() for env in self.envs]
        tracer = obs.TRACER
        handle = (
            tracer.begin("state_build", reset=self.num_envs)
            if tracer.enabled
            else None
        )
        batch = self._build([(i, *d) for i, d in enumerate(decisions)])
        if handle is not None:
            tracer.end(handle, nodes=int(batch.node_offsets[-1]))
        for env, ob in zip(self.envs, batch):
            env._current_obs = ob
        return VecResetResult(batch, [env._reset_info() for env in self.envs])

    def _build(self, decided: List[tuple]) -> ObservationBatch:
        """One batch from ``(member, proc, allow_pass)`` triples."""
        return build_observations(
            [self.envs[i].state_builder for i, _p, _a in decided],
            [self.envs[i].sim for i, _p, _a in decided],
            [proc for _i, proc, _a in decided],
            [allow for _i, _p, allow in decided],
        )

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
        members = list(members)
        actions = [int(a) for a in actions]
        currents = [
            self.envs[i]._check_action(a) for i, a in zip(members, actions)
        ]
        tracer = obs.TRACER
        handle = (
            tracer.begin("decision", batch=len(members)) if tracer.enabled else None
        )
        for i, current, action in zip(members, currents, actions):
            self.envs[i]._apply_action(current, action)
        slot = {i: j for j, i in enumerate(members)}
        rewards = np.empty(len(members), dtype=np.float64)
        dones = np.zeros(len(members), dtype=bool)
        infos: List[Optional[dict]] = [None] * len(members)
        # a member that reaches its decision point is not advanced again in
        # this step, so every member's observation is built in one batch
        # after the loop: (member, proc, allow_pass)
        decided: List[tuple] = []
        pending = members
        while pending:
            waiting: List[int] = []
            for i in pending:
                env = self.envs[i]
                sim = env.sim
                if sim.done:
                    result = env._finish_step(None)
                    rewards[slot[i]] = result.reward
                    dones[slot[i]] = True
                    info = dict(result.info)
                    # stash the terminal observation before the re-init
                    # below overwrites the row (gym convention)
                    info["terminal_observation"] = (
                        env.state_builder.build_terminal(sim)
                    )
                    infos[slot[i]] = info
                    if i not in final:
                        # auto-reset continues the member's own RNG stream;
                        # the fresh episode opens at a decision point
                        decided.append((i, *env._begin_episode()))
                    continue
                candidates = env._decision_candidates()
                if candidates is not None:
                    decided.append((i, *env._draw_proc(candidates)))
                else:
                    waiting.append(i)
            if waiting:
                # one advance_rows per kernel for the members whose next
                # event is a completion; the hooks handle every other event
                by_kernel: dict = {}
                for i in waiting:
                    if self.envs[i]._before_advance():
                        sim = self.envs[i].sim
                        by_kernel.setdefault(sim._kernel, []).append(sim._row)
                for kernel, rows in by_kernel.items():
                    kernel.advance_rows(np.asarray(rows, dtype=np.int64))
                for i in waiting:
                    self.envs[i]._after_advance()
            pending = waiting
        batch = None
        if decided:
            decided.sort(key=lambda d: d[0])
            build = (
                tracer.begin("state_build", batch=len(decided))
                if handle is not None
                else None
            )
            batch = self._build(decided)
            if build is not None:
                tracer.end(build, nodes=int(batch.node_offsets[-1]))
            for (i, _proc, _allow), ob in zip(decided, batch):
                env = self.envs[i]
                if dones[slot[i]]:
                    env._current_obs = ob
                else:
                    result = env._finish_step(ob)
                    rewards[slot[i]] = result.reward
                    infos[slot[i]] = result.info
        if handle is not None:
            tracer.end(handle, done=int(dones.sum()))
        return VecStepResult(batch, rewards, dones, infos)
