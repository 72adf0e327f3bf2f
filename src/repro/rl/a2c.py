"""A2C — synchronous advantage actor-critic (paper §IV-A).

The agent interacts with the environment under its current policy; every
``unroll_length`` decisions the collected transitions update the network:

* n-step returns ``R_t = r_t + γ r_{t+1} + … + γ^{k} V(s_{t+k})`` with the
  critic bootstrapping the tail (unless the episode ended inside the unroll);
* policy loss ``-E[log π(a_t|s_t) · A_t]`` with ``A_t = R_t - V(s_t)``
  (advantage detached from the policy gradient);
* value loss ``E[(V(s_t) - R_t)²]`` scaled by ``value_coef`` (paper: 0.5);
* entropy bonus ``-β·H(π(s_t))`` for exploration (paper grid: β ∈
  {1e-3, 5e-3, 1e-2});
* Adam at lr 0.01 (paper §V-D) and global-norm gradient clipping.

The paper grid-searches ``unroll_length ∈ {20, 40, 60, 80}`` and uses
``γ = 0.99``; those are the defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.nn import TrainingCompiler
from repro.nn import functional as F
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.rl.agent import BatchedForward, ReadysAgent
from repro.sim.state import Observation, ObservationBatch


@dataclass(frozen=True)
class A2CConfig:
    """Hyper-parameters of the A2C update (paper defaults)."""

    gamma: float = 0.99
    learning_rate: float = 1e-2
    value_coef: float = 0.5
    entropy_coef: float = 5e-3
    unroll_length: int = 40
    max_grad_norm: float = 5.0
    normalize_advantage: bool = True
    """standardise advantages per unroll — stabilises the policy gradient
    against the large negative returns of early training"""

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.value_coef < 0 or self.entropy_coef < 0:
            raise ValueError("loss coefficients must be >= 0")
        if self.unroll_length < 1:
            raise ValueError("unroll_length must be >= 1")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be > 0")


@dataclass
class Transition:
    """One (s, a, r, done) step of an unroll."""

    obs: Observation
    action: int
    reward: float
    done: bool


@dataclass
class UpdateStats:
    """Diagnostics of one A2C update."""

    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float
    mean_return: float


def a2c_loss_terms(
    bf: BatchedForward,
    actions: np.ndarray,
    returns: np.ndarray,
    *,
    value_coef: float,
    entropy_coef: float,
    normalize_advantage: bool,
) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """Build the A2C loss graph from one batched forward.

    The tape's half of the update: the array step
    (:func:`repro.nn.compile.array_step`) mirrors this op sequence bitwise,
    and ``tests/rl/test_array_step.py`` holds the two equal.

    Returns ``(loss, policy_loss, value_loss, entropy)`` tensors.
    """
    n = returns.shape[0]
    values = bf.values  # (n,), graph-connected
    logp = F.segment_log_softmax(bf.logits, bf.action_segments, n)
    action_rows = bf.action_offsets[:-1] + actions
    logp_actions = logp[action_rows]  # (n,)

    advantages = returns - values.data  # detached from the actor gradient
    if normalize_advantage:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    policy_loss = (logp_actions * Tensor(-advantages)).sum() / float(n)
    diff = values - Tensor(returns)
    value_loss = (diff * diff).sum() / float(n)
    # mean per-decision entropy: total -Σ p·log p over the flat logits / n
    entropy = F.entropy_bonus(logp) / float(n)
    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy
    return loss, policy_loss, value_loss, entropy


class A2CUpdater:
    """Applies A2C updates to a :class:`ReadysAgent` from collected unrolls."""

    def __init__(self, agent: ReadysAgent, config: Optional[A2CConfig] = None) -> None:
        self.agent = agent
        self.config = config if config is not None else A2CConfig()
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)
        # updates run as one array step; the ones it refuses run the tape
        self._train_compiler = TrainingCompiler(agent, self.optimizer)
        self._train_compiler.tracer = obs.TRACER

    def train_compile_stats(self) -> Dict[str, float]:
        """Array-step/fallback counters of the training step."""
        return self._train_compiler.stats_dict()

    def compute_returns(
        self, transitions: List[Transition], bootstrap_value: float
    ) -> np.ndarray:
        """n-step discounted returns, resetting at episode boundaries."""
        cfg = self.config
        returns = np.empty(len(transitions), dtype=np.float64)
        running = bootstrap_value
        for i in range(len(transitions) - 1, -1, -1):
            t = transitions[i]
            if t.done:
                running = 0.0
            running = t.reward + cfg.gamma * running
            returns[i] = running
        return returns

    def update(
        self, transitions: List[Transition], bootstrap_value: float
    ) -> UpdateStats:
        """One gradient step from an unroll.

        ``bootstrap_value`` is ``V(s_T)`` of the observation following the
        last transition (0 if that transition ended the episode).
        """
        return self.update_batch([transitions], [bootstrap_value])

    def update_batch(
        self, unrolls: List[List[Transition]], bootstrap_values: List[float]
    ) -> UpdateStats:
        """One gradient step from K unrolls (synchronous A2C over K environments).

        Every observation of every unroll goes through *one* batched forward
        (block-diagonal GCN), and the policy/value/entropy losses are reduced
        with segment ops — no per-transition network passes.  Returns are
        computed per unroll with that unroll's own bootstrap; losses average
        over all K·T transitions, so K = 1 reproduces the single-env update.
        """
        if len(unrolls) != len(bootstrap_values):
            raise ValueError(
                f"{len(unrolls)} unrolls but {len(bootstrap_values)} bootstrap values"
            )
        if not unrolls or any(not u for u in unrolls):
            raise ValueError("cannot update from an empty unroll")
        cfg = self.config
        flat = [t for unroll in unrolls for t in unroll]
        returns = np.concatenate(
            [
                self.compute_returns(unroll, bootstrap)
                for unroll, bootstrap in zip(unrolls, bootstrap_values)
            ]
        )
        n = len(flat)
        actions = np.array([t.action for t in flat], dtype=np.int64)
        normalize = cfg.normalize_advantage and n > 1
        mean_return = float(returns.mean())

        batch = ObservationBatch.of([t.obs for t in flat])
        out = self._train_compiler.update(
            "a2c",
            batch,
            actions,
            {
                "returns": returns,
                "value_coef": cfg.value_coef,
                "entropy_coef": cfg.entropy_coef,
                "normalize_advantage": normalize,
                "max_grad_norm": cfg.max_grad_norm,
            },
        )
        if out is None:  # a fallback: the tape runs the step
            out = self._reference_step(
                lambda: self._loss_terms(batch, actions, returns, normalize)
            )
        return UpdateStats(
            policy_loss=out["policy_loss"],
            value_loss=out["value_loss"],
            entropy=out["entropy"],
            grad_norm=out["grad_norm"],
            mean_return=mean_return,
        )

    def _reference_step(
        self, terms: Callable[[], Tuple[Tensor, Dict[str, float]]]
    ) -> Dict[str, float]:
        """One tape-built step: forward + loss, backward, clip, Adam."""
        tracer = obs.TRACER
        traced = tracer.enabled
        handle = tracer.begin("update/forward") if traced else None
        loss, stats = terms()
        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/backward")
        self.optimizer.zero_grad()
        loss.backward()
        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/optimizer")
        stats["grad_norm"] = clip_grad_norm(
            self.agent.parameters(), self.config.max_grad_norm
        )
        self.optimizer.step()
        if traced:
            tracer.end(handle)
        return stats

    def _loss_terms(
        self,
        batch: ObservationBatch,
        actions: np.ndarray,
        returns: np.ndarray,
        normalize: bool,
    ) -> Tuple[Tensor, Dict[str, float]]:
        """The tape's forward and loss construction over the *same* batch
        the array step reads; a batch of one routes through
        :meth:`ReadysAgent.forward`, bit-identical to it.
        """
        cfg = self.config
        bf = self.agent.forward_batch_flat(batch)
        loss, policy_loss, value_loss, entropy = a2c_loss_terms(
            bf,
            actions,
            returns,
            value_coef=cfg.value_coef,
            entropy_coef=cfg.entropy_coef,
            normalize_advantage=normalize,
        )
        return loss, {
            "policy_loss": float(policy_loss.data),
            "value_loss": float(value_loss.data),
            "entropy": float(entropy.data),
        }
