"""The reference autograd tape: the oracle of the array training step.

Every updater owns a :class:`repro.nn.TrainingCompiler` that runs each
update as one :func:`repro.nn.compile.array_step`.  Inside
:func:`reference_tape` every ``TrainingCompiler.update`` refuses, so updates
take the very path an updater runs on a tape fallback (grad disabled,
anomaly mode, a batch of one, a batch without a pass head) and execute on
the tape.  Parity tests and the update benchmark build their reference side
with it.  :func:`tape_terms` is the tape's half of one update over an
observation batch — loss, per-term stats and every parameter gradient —
for the differential suite ``tests/rl/test_array_step.py``.
"""

import contextlib

import numpy as np

from repro.nn import TrainingCompiler
from repro.rl.a2c import a2c_loss_terms
from repro.rl.ppo import ppo_loss_terms


def _refuse(self, *args, **kwargs):
    return None


@contextlib.contextmanager
def reference_tape():
    """Every training-step update inside the block runs on the tape."""
    original = TrainingCompiler.update
    TrainingCompiler.update = _refuse
    try:
        yield
    finally:
        TrainingCompiler.update = original


def assert_ran_on_tape(stats):
    """A reference run took no array step."""
    assert stats["array_steps"] == 0, stats


def assert_ran_compiled(stats):
    """A compiled run never fell back to the tape."""
    assert stats["fallbacks"] == 0 and stats["validation_failures"] == 0, stats


def tape_terms(agent, kind, batch, actions, consts):
    """``(loss, stats, grads)`` of one A2C or PPO update built on the tape
    over the observation ``batch``; ``consts`` is what :func:`array_step`
    reads."""
    bf = agent._forward_batch(batch)
    common = dict(value_coef=consts["value_coef"], entropy_coef=consts["entropy_coef"])
    if kind == "a2c":
        loss, policy, value, entropy = a2c_loss_terms(
            bf, actions, consts["returns"],
            normalize_advantage=consts["normalize_advantage"], **common,
        )
    else:
        old, adv = consts["old_log_probs"], consts["advantages"]
        eps = consts["clip_epsilon"]
        loss, policy, value, entropy, logp_actions = ppo_loss_terms(
            bf, actions, consts["returns"], old_log_probs=old, advantages=adv,
            clip_epsilon=eps, **common,
        )
    stats = {
        "loss": float(loss.data),
        "policy_loss": float(policy.data),
        "value_loss": float(value.data),
        "entropy": float(entropy.data),
    }
    if kind == "ppo":
        # the diagnostics PPOTrainer derives from the tape's log-probs
        logp_a = logp_actions.data
        ratio = np.exp(logp_a - old)
        clipped = ((adv >= 0.0) & (ratio > 1.0 + eps)) | ((adv < 0.0) & (ratio < 1.0 - eps))
        stats["clip_fraction"] = float(np.count_nonzero(clipped)) / float(actions.size)
        stats["approx_kl"] = float(np.mean(old - logp_a))
    agent.zero_grad()
    loss.backward()
    return stats["loss"], stats, [np.array(p.grad) for p in agent.parameters()]
