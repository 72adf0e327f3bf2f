"""Fault-tolerant training checkpoints: save → kill → resume, seamlessly.

A :class:`TrainingCheckpoint` freezes *everything* a training run needs to
continue bit-identically: model weights, optimizer slot state (Adam moments
and step count), every RNG stream (trainer sampling generator plus the
per-environment generators pickled inside the environment state), the
:class:`~repro.spec.ExperimentSpec`, the update step counter and the full
learning-curve history.  ``trainer_from_checkpoint`` revives the
:class:`~repro.rl.trainer.ReadysTrainer` whose environments were frozen
wholesale.

Files are written atomically (tmp file + ``os.replace``), so a crash *during*
checkpointing never corrupts the previous checkpoint.  A file that is
truncated or corrupt anyway fails to load with a ``ValueError`` naming it.
The container is a Python pickle: it holds live simulator objects, not just
arrays — load checkpoints only from sources you trust, exactly as with
``torch.load``.  Weight-only agent checkpoints (``save_agent``) remain plain
``.npz``.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.nn.optim import Adam
from repro.rl.a2c import A2CConfig, UpdateStats
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.rl.trainer import ReadysTrainer, TrainResult
from repro.spec import ExperimentSpec

#: bump when the on-disk layout changes incompatibly
CHECKPOINT_VERSION = 1


@dataclass
class TrainingCheckpoint:
    """One frozen training run (see the module docstring for the contract)."""

    step: int
    """unroll+update cycles completed when the checkpoint was taken"""
    agent_config: Dict[str, Any]
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any]
    a2c_config: Dict[str, Any]
    result_state: Dict[str, Any]
    """learning-curve history: episode makespans/rewards + update-stat rows"""
    spec: Optional[Dict[str, Any]] = None
    """the run's ExperimentSpec (None for component-built trainers)"""
    env_bundle: Optional[bytes] = None
    """pickled (vec_env, pending obs, sampling rng)"""
    version: int = CHECKPOINT_VERSION
    metadata: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# result history <-> plain state
# ---------------------------------------------------------------------- #


def _result_to_state(result: TrainResult) -> Dict[str, Any]:
    return {
        "episode_makespans": list(result.episode_makespans),
        "episode_rewards": list(result.episode_rewards),
        "update_stats": [asdict(s) for s in result.update_stats],
    }


def _result_from_state(state: Dict[str, Any]) -> TrainResult:
    return TrainResult(
        episode_makespans=list(state["episode_makespans"]),
        episode_rewards=list(state["episode_rewards"]),
        update_stats=[UpdateStats(**row) for row in state["update_stats"]],
    )


# ---------------------------------------------------------------------- #
# save / load
# ---------------------------------------------------------------------- #


def save_checkpoint(checkpoint: TrainingCheckpoint, path: str) -> None:
    """Write ``checkpoint`` to ``path`` atomically (tmp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as fh:
        pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp_path, path)


def load_checkpoint(path: str) -> TrainingCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A truncated or corrupt file raises ``ValueError`` naming ``path``,
    chained from whatever the unpickler raised.  So does a checkpoint of the
    removed multiprocess rollout pool (``num_workers > 1``); single-process
    checkpoints written before its removal still load.
    """
    with open(path, "rb") as fh:
        try:
            checkpoint = pickle.load(fh)
        except Exception as exc:
            # byte damage surfaces as whichever error the opcode stream hits
            # first (UnpicklingError, EOFError, UnicodeDecodeError, ...)
            raise ValueError(
                f"{path!r} is a truncated or corrupt checkpoint "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    if not isinstance(checkpoint, TrainingCheckpoint):
        raise ValueError(
            f"{path!r} does not contain a TrainingCheckpoint "
            f"(got {type(checkpoint).__name__})"
        )
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has version {checkpoint.version}, "
            f"this library reads version {CHECKPOINT_VERSION}"
        )
    # checkpoints pickled while the rollout pool existed carry its fields
    num_workers = vars(checkpoint).pop("num_workers", 1)
    vars(checkpoint).pop("worker_states", None)
    if num_workers > 1:
        raise ValueError(
            f"checkpoint {path!r} was written by a {num_workers}-worker "
            "rollout pool, which has been removed and cannot be resumed; "
            "start a fresh run and raise num_envs to batch more "
            "environments in one process"
        )
    return checkpoint


# ---------------------------------------------------------------------- #
# trainer <-> checkpoint
# ---------------------------------------------------------------------- #


def checkpoint_of_trainer(trainer: "ReadysTrainer") -> TrainingCheckpoint:
    """Freeze a :class:`ReadysTrainer`."""
    env_bundle = pickle.dumps(
        (trainer.vec_env, trainer._obs, trainer.rng),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return TrainingCheckpoint(
        step=trainer.completed_updates,
        agent_config=asdict(trainer.agent.config),
        model_state={k: v.copy() for k, v in trainer.agent.state_dict().items()},
        optimizer_state=trainer.updater.optimizer.state_dict(),
        a2c_config=asdict(trainer.updater.config),
        result_state=_result_to_state(trainer.result),
        spec=trainer.spec.to_dict() if trainer.spec is not None else None,
        env_bundle=env_bundle,
    )


def trainer_from_checkpoint(checkpoint: TrainingCheckpoint) -> ReadysTrainer:
    """Revive the trainer frozen in ``checkpoint``.

    The revived trainer's next ``train_updates`` call continues the learning
    curve exactly where the checkpoint stopped.
    """
    if checkpoint.env_bundle is None:
        raise ValueError("checkpoint is missing its env bundle")
    try:
        vec_env, pending_obs, rng = pickle.loads(checkpoint.env_bundle)
    except Exception as exc:
        raise ValueError(
            f"checkpoint env bundle is corrupt ({type(exc).__name__}: {exc})"
        ) from exc
    agent = ReadysAgent(AgentConfig(**checkpoint.agent_config), rng=0)
    agent.load_state_dict(checkpoint.model_state)
    trainer = ReadysTrainer(
        vec_env,
        agent=agent,
        config=A2CConfig(**checkpoint.a2c_config),
        rng=rng,
    )
    optimizer = trainer.updater.optimizer
    if not isinstance(optimizer, Adam):  # pragma: no cover - A2CUpdater uses Adam
        raise TypeError(f"unexpected optimizer {type(optimizer).__name__}")
    optimizer.load_state_dict(checkpoint.optimizer_state)
    trainer._obs = pending_obs
    trainer.result = _result_from_state(checkpoint.result_state)
    if checkpoint.spec is not None:
        trainer.spec = ExperimentSpec.from_dict(checkpoint.spec)
    return trainer


def resume_target_updates(checkpoint_step: int, total_updates: int) -> int:
    """Updates still to run so a resumed run totals ``total_updates``.

    The CLI's ``--updates N --resume ckpt`` means "the finished run should
    have N updates", not "N more" — this maps one to the other.
    """
    if total_updates < 0:
        raise ValueError("total_updates must be >= 0")
    return max(0, total_updates - checkpoint_step)
