"""Per-decision inference-time measurement (paper Fig. 7).

The paper reports the wall-clock time of one scheduling decision (one agent
forward pass) as a function of the number of tasks in the window, with 99%
confidence intervals — the scheduling overhead must stay well below typical
task durations (tens of milliseconds) for the approach to be practical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.eval.metrics import mean_confidence_interval
from repro.obs import Timer, metrics
from repro.rl.agent import ReadysAgent
from repro.sim.env import SchedulingEnv, run_policy
from repro.sim.state import Observation
from repro.sim.vec_env import VecSchedulingEnv
from repro.utils.seeding import SeedLike, as_generator


def inference_timing(
    agent: ReadysAgent,
    env: SchedulingEnv,
    episodes: int = 3,
    rng: SeedLike = None,
) -> List[Tuple[int, float]]:
    """Collect (window size, seconds) samples over full episodes.

    Each sample times exactly one forward pass (action selection) and records
    the number of tasks in the window at that decision.
    """
    rng = as_generator(rng)
    samples: List[Tuple[int, float]] = []

    def timed_decision(obs: Observation) -> int:
        timer = Timer()
        with timer:
            action = agent.sample_action(obs, rng)
        samples.append((obs.num_nodes, timer.total))
        return action

    for _ in range(episodes):
        run_policy(env, timed_decision)
    if metrics.METRICS.enabled:
        # per-decision latency histogram (raw samples; a Timer metric keeps
        # them all, so p50/p95 can be recomputed from the dump)
        hist = metrics.METRICS.timer("inference/decision_seconds")
        for _size, seconds in samples:
            hist.record(seconds)
    return samples


def batched_inference_timing(
    agent: ReadysAgent,
    vec_env: VecSchedulingEnv,
    steps: int = 50,
    rng: SeedLike = None,
) -> Dict[str, float]:
    """Throughput of batched greedy decisions at K = ``vec_env.num_envs``.

    Times ``steps`` lockstep decision waves (one :meth:`forward_batch` each)
    and reports decisions per second — the batch-inference companion of
    Fig. 7's single-decision latency.  Episodes auto-reset, so any ``steps``
    budget is valid.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = as_generator(rng)
    obs = vec_env.reset().obs
    total = 0.0
    for _ in range(steps):
        timer = Timer()
        with timer:
            actions = agent.greedy_actions(obs)
        total += timer.total
        obs, _rewards, _dones, _infos = vec_env.step(actions)
    k = vec_env.num_envs
    return {
        "num_envs": float(k),
        "steps": float(steps),
        "seconds_per_wave": total / steps,
        "decisions_per_second": (k * steps) / total if total > 0 else float("inf"),
    }


def timing_by_window_size(
    samples: List[Tuple[int, float]],
    num_bins: int = 6,
    confidence: float = 0.99,
) -> List[Dict[str, float]]:
    """Bin samples by window size; mean + CI per bin (the Fig. 7 series)."""
    if not samples:
        raise ValueError("no timing samples")
    sizes = np.array([s for s, _ in samples], dtype=np.float64)
    times = np.array([t for _, t in samples], dtype=np.float64)
    edges = np.linspace(sizes.min(), sizes.max() + 1e-9, num_bins + 1)
    rows: List[Dict[str, float]] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (sizes >= lo) & (sizes < hi)
        if not mask.any():
            continue
        mean, lower, upper = mean_confidence_interval(times[mask], confidence)
        rows.append(
            {
                "window_lo": float(lo),
                "window_hi": float(hi),
                "count": int(mask.sum()),
                "mean_s": mean,
                "ci_lower_s": lower,
                "ci_upper_s": upper,
            }
        )
    return rows
