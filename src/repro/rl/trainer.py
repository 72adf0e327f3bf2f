"""Training loop wiring the environment(s), the agent and the A2C updater.

One *training step* = collect ``unroll_length`` decisions from each of K
lockstep environments under the current policy (stochastic sampling) and
apply one batched A2C update; episodes continue seamlessly across unrolls,
being reset transparently when they end (classic synchronous A2C over K
environments).  K = 1 consumes exactly the same RNG stream and applies exactly the
same updates as the historical single-env loop, so seeded runs are
reproducible across the vectorisation.  Evaluation runs full episodes under
the greedy policy — batched across member environments when given a
:class:`~repro.sim.vec_env.VecSchedulingEnv`.

Since the struct-of-arrays refactor (DESIGN.md §11), homogeneous members of
the vec env share one :class:`~repro.sim.kernel.SimKernel`, so the unroll's
``vec_env.step`` advances all waiting members per event in fused array
passes and builds the K observations through one batched dynamic-state
gather.  Nothing changes here: the trainer sees the same observations,
rewards and RNG streams as K standalone environments would give (pinned
row-identical by ``tests/sim/test_vec_parity.py``), and episode ends still
surface the gym-style ``infos[k]["terminal_observation"]`` alongside the
auto-reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.obs import clock as obs_clock
from repro.rl.a2c import A2CConfig, A2CUpdater, Transition, UpdateStats
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.sim.env import SchedulingEnv, run_policy
from repro.sim.state import PROC_FEATURE_DIM, Observation, observation_feature_dim
from repro.sim.vec_env import VecSchedulingEnv
from repro.utils.seeding import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.spec import ExperimentSpec

EnvLike = Union[SchedulingEnv, VecSchedulingEnv]


@dataclass
class TrainResult:
    """History of a training run."""

    episode_makespans: List[float] = field(default_factory=list)
    episode_rewards: List[float] = field(default_factory=list)
    update_stats: List[UpdateStats] = field(default_factory=list)

    @property
    def num_episodes(self) -> int:
        return len(self.episode_rewards)

    def best_makespan(self) -> float:
        """Best makespan seen during training (inf when no episode ended)."""
        return min(self.episode_makespans) if self.episode_makespans else float("inf")


def default_agent(
    env: EnvLike,
    hidden_dim: int = 64,
    num_gcn_layers: Optional[int] = None,
    rng: SeedLike = None,
) -> ReadysAgent:
    """Build an agent sized for ``env``'s observations.

    ``num_gcn_layers`` defaults to ``max(window, 1)`` per the paper's
    empirical finding that w layers suffice.  Accepts a single environment or
    a :class:`VecSchedulingEnv` (members share the observation shape).
    """
    num_types = env.durations.num_kernels
    builder = (
        env.state_builder
        if isinstance(env, SchedulingEnv)
        else env.envs[0].state_builder
    )
    extra = int(getattr(builder, "extra_node_features", 0))
    config = AgentConfig(
        feature_dim=observation_feature_dim(num_types) + extra,
        proc_feature_dim=PROC_FEATURE_DIM,
        hidden_dim=hidden_dim,
        num_gcn_layers=num_gcn_layers if num_gcn_layers is not None else max(env.window, 1),
    )
    return ReadysAgent(config, rng=rng)


class ReadysTrainer:
    """Synchronous A2C trainer over K lockstep environments.

    :meth:`from_spec` builds the trainer an
    :class:`~repro.spec.ExperimentSpec` describes; the constructor composes
    one from pre-built parts (custom environments and agents).

    ``env`` may be a single :class:`SchedulingEnv` (wrapped into a K=1
    :class:`VecSchedulingEnv`) or a pre-built ``VecSchedulingEnv`` whose K
    members roll out in parallel through batched network passes.
    """

    def __init__(
        self,
        env: EnvLike,
        agent: Optional[ReadysAgent] = None,
        config: Optional[A2CConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        if isinstance(env, VecSchedulingEnv):
            self.vec_env = env
        else:
            self.vec_env = VecSchedulingEnv([env])
        self.env = self.vec_env.envs[0]
        self.rng = as_generator(rng)
        self.agent = agent if agent is not None else default_agent(self.vec_env, rng=self.rng)
        self.updater = A2CUpdater(self.agent, config)
        self._obs: Optional[List[Observation]] = None
        self.result = TrainResult()
        self.spec: Optional["ExperimentSpec"] = None
        """the spec this trainer was built from (None when composed from parts)"""

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(
        cls, spec: "ExperimentSpec", config: Optional[A2CConfig] = None
    ) -> "ReadysTrainer":
        """Build the trainer described by ``spec``."""
        trainer = cls(spec.make_train_env(), config=config, rng=spec.seed)
        trainer.spec = spec
        return trainer

    @classmethod
    def from_checkpoint(cls, path: str) -> "ReadysTrainer":
        """Revive a trainer from a :mod:`repro.rl.checkpoint` file.

        The restored trainer continues the interrupted run bit-identically:
        model weights, optimizer slots, RNG streams, environment state and
        the learning-curve history all resume where the checkpoint left off.
        """
        from repro.rl.checkpoint import load_checkpoint, trainer_from_checkpoint

        return trainer_from_checkpoint(load_checkpoint(path))

    @property
    def num_envs(self) -> int:
        return self.vec_env.num_envs

    @property
    def completed_updates(self) -> int:
        """Unroll+update cycles applied so far (the checkpoint ``step``)."""
        return len(self.result.update_stats)

    # ------------------------------------------------------------------ #

    def _collect_unrolls(self) -> Tuple[List[List[Transition]], List[float]]:
        """Gather ``unroll_length`` transitions per member under the sampling policy.

        Episode bookkeeping is time-major (step, then member index), which for
        K = 1 matches the legacy single-env order exactly.
        """
        unroll_length = self.updater.config.unroll_length
        if unroll_length < 1:
            # A2CConfig validates this, but guard against hand-built configs:
            # an unguarded empty unroll would surface as an opaque IndexError.
            raise ValueError(
                f"cannot collect an unroll of length {unroll_length}; "
                "unroll_length must be >= 1"
            )
        k = self.num_envs
        tracer = obs.TRACER
        unrolls: List[List[Transition]] = [[] for _ in range(k)]
        observations = self._obs if self._obs is not None else self.vec_env.reset().obs
        for _ in range(unroll_length):
            actions = self.agent.sample_actions(observations, self.rng)
            step = self.vec_env.step(actions)
            for i in range(k):
                unrolls[i].append(
                    Transition(
                        observations[i],
                        int(actions[i]),
                        float(step.rewards[i]),
                        bool(step.dones[i]),
                    )
                )
                if step.dones[i]:
                    self.result.episode_rewards.append(float(step.rewards[i]))
                    self.result.episode_makespans.append(step.infos[i]["makespan"])
                    if tracer.enabled:
                        tracer.event(
                            "episode_end",
                            episode=len(self.result.episode_makespans) - 1,
                            member=i,
                            makespan=step.infos[i]["makespan"],
                            reward=float(step.rewards[i]),
                        )
            observations = step.obs
        self._obs = observations
        # bootstrap with V of the observation after each unroll (0 after a
        # terminal transition, handled inside compute_returns via done flags)
        bootstraps = [0.0] * k
        open_members = [i for i in range(k) if not unrolls[i][-1].done]
        if open_members:
            values = self.agent.state_values(
                [observations[i] for i in open_members]
            )
            for i, v in zip(open_members, values):
                bootstraps[i] = float(v)
        return unrolls, bootstraps

    def _one_update(self) -> UpdateStats:
        """One unroll+update cycle, instrumented when tracing/metrics are on.

        The off path is the bare historical loop body — the only added cost
        with observability disabled is two attribute checks per update.
        """
        tracer = obs.TRACER
        registry = obs.METRICS
        if not (tracer.enabled or registry.enabled):
            unrolls, bootstraps = self._collect_unrolls()
            stats = self.updater.update_batch(unrolls, bootstraps)
            self.result.update_stats.append(stats)
            return stats

        update_index = len(self.result.update_stats)
        episodes_before = self.result.num_episodes
        started = obs_clock.now()
        update_handle = tracer.begin("update", update=update_index)
        unroll_handle = tracer.begin("unroll", update=update_index)
        unrolls, bootstraps = self._collect_unrolls()
        tracer.end(unroll_handle)
        stats = self.updater.update_batch(unrolls, bootstraps)
        tracer.end(
            update_handle,
            policy_loss=stats.policy_loss,
            value_loss=stats.value_loss,
            entropy=stats.entropy,
            grad_norm=stats.grad_norm,
        )
        self.result.update_stats.append(stats)
        if registry.enabled:
            duration = obs_clock.now() - started
            env_steps = self.num_envs * self.updater.config.unroll_length
            registry.timer("train/update_time").record(duration)
            if duration > 0:
                registry.gauge("train/env_steps_per_second").set(
                    env_steps / duration
                )
            registry.record("train/policy_loss", stats.policy_loss, step=update_index)
            registry.record("train/value_loss", stats.value_loss, step=update_index)
            registry.record("train/entropy", stats.entropy, step=update_index)
            registry.record("train/grad_norm", stats.grad_norm, step=update_index)
            registry.record("train/mean_return", stats.mean_return, step=update_index)
            for episode in range(episodes_before, self.result.num_episodes):
                registry.record(
                    "episode/makespan",
                    self.result.episode_makespans[episode],
                    step=episode,
                )
                registry.record(
                    "episode/reward",
                    self.result.episode_rewards[episode],
                    step=episode,
                )
        return stats

    def train_updates(
        self,
        num_updates: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> TrainResult:
        """Run ``num_updates`` unroll+update cycles; returns the history.

        With ``checkpoint_every=N`` and a ``checkpoint_path``, a full
        training checkpoint (model + optimizer + RNG + env state + history)
        is written atomically every N cycles and after the final cycle, so a
        killed run loses at most N updates and ``from_checkpoint`` resumes
        the learning curve seamlessly.
        """
        if num_updates < 0:
            raise ValueError("num_updates must be >= 0")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        for i in range(num_updates):
            self._one_update()
            if checkpoint_every and (
                (i + 1) % checkpoint_every == 0 or i + 1 == num_updates
            ):
                self.save_checkpoint(checkpoint_path)
        return self.result

    def save_checkpoint(self, path: str) -> None:
        """Write a resumable checkpoint of the full training state to ``path``."""
        from repro.rl.checkpoint import checkpoint_of_trainer, save_checkpoint

        save_checkpoint(checkpoint_of_trainer(self), path)

    def train_episodes(self, num_episodes: int) -> TrainResult:
        """Train until ``num_episodes`` additional episodes have completed."""
        if num_episodes < 0:
            raise ValueError("num_episodes must be >= 0")
        target = self.result.num_episodes + num_episodes
        while self.result.num_episodes < target:
            self._one_update()
        return self.result


# ---------------------------------------------------------------------- #
# evaluation
# ---------------------------------------------------------------------- #


def _evaluate_vec(
    agent: ReadysAgent,
    vec_env: VecSchedulingEnv,
    episodes: int,
    greedy: bool,
    rng: np.random.Generator,
) -> List[float]:
    """Lockstep evaluation across member envs: one batched observation build
    and one batched forward per lockstep step.

    ``episodes`` are distributed round-robin over the members; makespans are
    returned grouped by member (member order, then episode order), so K
    members × 1 episode yields one makespan per member in member order.
    """
    k = vec_env.num_envs
    quotas = [episodes // k + (1 if i < episodes % k else 0) for i in range(k)]
    makespans: List[List[float]] = [[] for _ in range(k)]
    active = [i for i in range(k) if quotas[i] > 0]
    observations: Sequence[Observation] = [
        vec_env.envs[i].reset().obs for i in active
    ]
    while active:
        if greedy:
            actions = agent.greedy_actions(observations)
        else:
            actions = agent.sample_actions(observations, rng)
        # members on their last episode are not reset when it ends
        final = {i for i in active if len(makespans[i]) + 1 == quotas[i]}
        step = vec_env._step_members(active, actions, final)
        for i, done, info in zip(active, step.dones, step.infos):
            if done:
                makespans[i].append(info["makespan"])
        active = [i for i, done in zip(active, step.dones) if not (done and i in final)]
        observations = step.obs
    return [m for member in makespans for m in member]


def evaluate_agent(
    agent: ReadysAgent,
    env: EnvLike,
    episodes: int = 5,
    greedy: bool = True,
    rng: SeedLike = None,
) -> List[float]:
    """Makespans of ``episodes`` evaluation rollouts of ``agent`` on ``env``.

    ``greedy=True`` uses the policy mode (the paper's evaluation style);
    otherwise actions are sampled.  Passing a :class:`VecSchedulingEnv` runs
    the member environments in lockstep with batched inference — one network
    pass per decision wave instead of one per decision.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = as_generator(rng)
    if isinstance(env, VecSchedulingEnv):
        return _evaluate_vec(agent, env, episodes, greedy, rng)
    decide = agent.greedy_action if greedy else (
        lambda observation: agent.sample_action(observation, rng)
    )
    return [run_policy(env, decide)["makespan"] for _ in range(episodes)]
