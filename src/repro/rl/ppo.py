"""PPO — proximal policy optimization, the paper's future-work direction.

§VI: "We use A2C as our reinforcement learning algorithm.  Other algorithms
that have been recently introduced may improve our results still further."
PPO-clip is the standard such upgrade: it reuses each collected unroll for
several gradient epochs, with the probability ratio clipped to keep the new
policy close to the one that collected the data, and advantages estimated
with GAE(λ).

The implementation mirrors :mod:`repro.rl.a2c` so the two can be swapped in
experiments; ``benchmarks``/examples default to A2C (paper fidelity), PPO is
exercised by ``tests/rl/test_ppo.py`` and available for extension studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs as obs_mod
from repro.nn import TrainingCompiler
from repro.nn import functional as F
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.rl.agent import BatchedForward, ReadysAgent
from repro.sim.env import SchedulingEnv
from repro.sim.state import Observation
from repro.utils.seeding import SeedLike, as_generator


@dataclass(frozen=True)
class PPOConfig:
    """PPO hyper-parameters (standard defaults)."""

    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-3
    value_coef: float = 0.5
    entropy_coef: float = 5e-3
    rollout_length: int = 128
    num_epochs: int = 4
    max_grad_norm: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.rollout_length < 1 or self.num_epochs < 1:
            raise ValueError("rollout_length and num_epochs must be >= 1")


@dataclass
class PPOTransition:
    """One rollout step with the sampling-time policy statistics attached."""

    obs: Observation
    action: int
    reward: float
    done: bool
    log_prob: float
    value: float


def compute_gae(
    transitions: List[PPOTransition],
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalised advantage estimates, resetting at episode boundaries."""
    n = len(transitions)
    advantages = np.empty(n, dtype=np.float64)
    gae = 0.0
    next_value = bootstrap_value
    for i in range(n - 1, -1, -1):
        t = transitions[i]
        if t.done:
            next_value = 0.0
            gae = 0.0
        delta = t.reward + gamma * next_value - t.value
        gae = delta + gamma * lam * gae
        advantages[i] = gae
        next_value = t.value
    return advantages


@dataclass
class PPOUpdateStats:
    """Diagnostics of one PPO update (averaged over epochs)."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


def ppo_loss_terms(
    bf: BatchedForward,
    actions: np.ndarray,
    returns: np.ndarray,
    *,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
    value_coef: float,
    entropy_coef: float,
) -> Tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """Build the PPO clipped-surrogate loss graph from one batched forward.

    The tape's half of the update, mirrored bitwise by the array step (see
    :func:`repro.rl.a2c.a2c_loss_terms`).  ``advantages`` arrive already
    normalised; both they and ``old_log_probs`` are rollout-time constants.

    Returns ``(loss, policy_loss, value_loss, entropy, logp_actions)``
    tensors — the last one so callers can derive the clip-fraction and
    approximate-KL diagnostics without a second softmax pass.
    """
    n = returns.shape[0]
    values = bf.values  # (n,), graph-connected
    logp = F.segment_log_softmax(bf.logits, bf.action_segments, n)
    action_rows = bf.action_offsets[:-1] + actions
    logp_actions = logp[action_rows]  # (n,)

    surrogate = F.clipped_surrogate(
        logp_actions, old_log_probs, advantages, clip_epsilon
    )
    policy_loss = surrogate.sum() / float(n)
    diff = values - Tensor(returns)
    value_loss = (diff * diff).sum() / float(n)
    entropy = F.entropy_bonus(logp) / float(n)
    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy
    return loss, policy_loss, value_loss, entropy, logp_actions


class PPOTrainer:
    """Rollout collection + clipped-surrogate updates for one environment."""

    def __init__(
        self,
        env: SchedulingEnv,
        agent: ReadysAgent,
        config: Optional[PPOConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.env = env
        self.agent = agent
        self.config = config if config is not None else PPOConfig()
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)
        self.rng = as_generator(rng)
        self._obs: Optional[Observation] = None
        self.episode_makespans: List[float] = []
        self.episode_rewards: List[float] = []
        # every epoch is one array step over the rollout's glue, built once
        # per update; the epochs it refuses run the tape
        self._train_compiler = TrainingCompiler(self.agent, self.optimizer)
        self._train_compiler.tracer = obs_mod.TRACER

    def train_compile_stats(self) -> Dict[str, float]:
        """Array-step/fallback counters of the training step."""
        return self._train_compiler.stats_dict()

    def _policy_stats(self, obs: Observation) -> tuple:
        """(action, logπ(action|s), V(s)) under the current policy, no grad."""
        logp, value = self.agent.log_policy(obs)
        probs = np.exp(logp)
        probs = probs / probs.sum()
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(logp[action]), value

    def collect_rollout(self) -> tuple:
        """Gather ``rollout_length`` transitions; returns (transitions, bootstrap)."""
        transitions: List[PPOTransition] = []
        obs = self._obs if self._obs is not None else self.env.reset().obs
        for _ in range(self.config.rollout_length):
            action, logp, value = self._policy_stats(obs)
            next_obs, reward, done, info = self.env.step(action)
            transitions.append(
                PPOTransition(obs, action, reward, done, logp, value)
            )
            if done:
                self.episode_rewards.append(reward)
                self.episode_makespans.append(info["makespan"])
                obs = self.env.reset().obs
            else:
                obs = next_obs
        self._obs = obs
        if transitions[-1].done:
            bootstrap = 0.0
        else:
            bootstrap = self.agent.state_value(obs)
        return transitions, bootstrap

    def update(
        self, transitions: List[PPOTransition], bootstrap_value: float
    ) -> PPOUpdateStats:
        """``num_epochs`` clipped-surrogate passes over one rollout.

        Every epoch runs *one* batched forward over the whole rollout
        (block-diagonal GCN, segment log-softmax) — the glue is built once
        and shared by all epochs.
        """
        if not transitions:
            raise ValueError("cannot update from an empty rollout")
        cfg = self.config
        advantages = compute_gae(
            transitions, bootstrap_value, cfg.gamma, cfg.gae_lambda
        )
        returns = advantages + np.array([t.value for t in transitions])
        if len(transitions) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        actions = np.array([t.action for t in transitions], dtype=np.int64)
        old_log_probs = np.array(
            [t.log_prob for t in transitions], dtype=np.float64
        )
        glue = self.agent._batch_glue([t.obs for t in transitions])

        keys = ("policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl")
        totals = dict.fromkeys(keys, 0.0)
        consts = {
            "returns": returns,
            "value_coef": cfg.value_coef,
            "entropy_coef": cfg.entropy_coef,
            "old_log_probs": old_log_probs,
            "advantages": advantages,
            "clip_epsilon": cfg.clip_epsilon,
            "max_grad_norm": cfg.max_grad_norm,
        }
        for _ in range(cfg.num_epochs):
            out = self._train_compiler.update("ppo", glue, actions, consts)
            if out is None:
                out = self._reference_epoch(
                    glue, actions, returns, advantages, old_log_probs
                )
            for key in keys:
                totals[key] += out[key] / cfg.num_epochs
        return PPOUpdateStats(**totals)

    def _reference_epoch(
        self,
        glue,
        actions: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
        old_log_probs: np.ndarray,
    ) -> Dict[str, float]:
        """One tape-built epoch: forward, loss, backward, clip, Adam."""
        cfg = self.config
        tracer = obs_mod.TRACER
        traced = tracer.enabled
        handle = tracer.begin("update/forward") if traced else None
        loss, aux = self._reference_terms(
            glue, actions, returns, advantages, old_log_probs
        )
        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/backward")
        self.optimizer.zero_grad()
        loss.backward()
        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/optimizer")
        clip_grad_norm(self.agent.parameters(), cfg.max_grad_norm)
        self.optimizer.step()
        if traced:
            tracer.end(handle)
        return aux

    def _reference_terms(
        self,
        glue,
        actions: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
        old_log_probs: np.ndarray,
    ) -> Tuple[Tensor, Dict[str, float]]:
        """The tape's forward and loss construction, over the *same* glue
        the array step reads."""
        cfg = self.config
        loss, policy_loss, value_loss, entropy, logp_actions = ppo_loss_terms(
            self.agent._forward_glue(glue),
            actions,
            returns,
            old_log_probs=old_log_probs,
            advantages=advantages,
            clip_epsilon=cfg.clip_epsilon,
            value_coef=cfg.value_coef,
            entropy_coef=cfg.entropy_coef,
        )
        # diagnostics, with the same expressions the fused kernel uses
        n_f = float(returns.shape[0])
        logp_a = logp_actions.data
        ratio = np.exp(logp_a - old_log_probs)
        lo, hi = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
        clipped = ((advantages >= 0.0) & (ratio > hi)) | (
            (advantages < 0.0) & (ratio < lo)
        )
        return loss, {
            "policy_loss": float(policy_loss.data),
            "value_loss": float(value_loss.data),
            "entropy": float(entropy.data),
            "clip_fraction": float(np.count_nonzero(clipped)) / n_f,
            "approx_kl": float(np.mean(old_log_probs - logp_a)),
        }

    def train_updates(self, num_updates: int) -> List[PPOUpdateStats]:
        """Run ``num_updates`` rollout+update cycles."""
        if num_updates < 0:
            raise ValueError("num_updates must be >= 0")
        history = []
        for _ in range(num_updates):
            transitions, bootstrap = self.collect_rollout()
            history.append(self.update(transitions, bootstrap))
        return history
