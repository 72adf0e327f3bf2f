"""Transfer learning utilities (paper §V-F).

The paper's key practical claim is that an agent trained on a small instance
(e.g. Cholesky T=6, 56 tasks) transfers to larger instances (T=10/12, 220/364
tasks) because the state representation is size-normalised.  These helpers
checkpoint agents with their configuration and evaluate a trained agent on a
*different* environment without retraining.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.nn.serialization import load_state_dict, save_state_dict
from repro.rl.agent import AgentConfig, ReadysAgent
from repro.rl.trainer import evaluate_agent
from repro.sim.env import SchedulingEnv
from repro.utils.seeding import SeedLike


def save_agent(agent: ReadysAgent, path: str, **extra_metadata: str) -> None:
    """Checkpoint ``agent`` (weights + architecture config) to ``path``."""
    config = {
        "feature_dim": agent.config.feature_dim,
        "proc_feature_dim": agent.config.proc_feature_dim,
        "hidden_dim": agent.config.hidden_dim,
        "num_gcn_layers": agent.config.num_gcn_layers,
    }
    save_state_dict(agent, path, config=json.dumps(config), **extra_metadata)


def load_agent(path: str, rng: SeedLike = None) -> ReadysAgent:
    """Rebuild an agent from a :func:`save_agent` checkpoint."""
    # Build a probe agent to discover metadata, then reconstruct precisely.
    import numpy as np

    with np.load(path if path.endswith(".npz") else path + ".npz", allow_pickle=False) as archive:
        raw = str(archive["__meta__config"])
    config = AgentConfig(**json.loads(raw))
    agent = ReadysAgent(config, rng=rng)
    load_state_dict(agent, path)
    return agent


def transfer_evaluate(
    agent: ReadysAgent,
    envs: Dict[str, SchedulingEnv],
    episodes: int = 5,
    rng: SeedLike = None,
) -> Dict[str, List[float]]:
    """Evaluate one trained agent across several environments.

    ``envs`` maps a label (e.g. ``"T=10"``) to an environment; returns the
    per-label lists of makespans.  The agent is used as-is — the whole point
    of the experiment is zero-shot transfer.
    """
    return {
        label: evaluate_agent(agent, env, episodes=episodes, rng=rng)
        for label, env in envs.items()
    }
