"""Environment-driven evaluation against any :class:`~repro.policy.api.Policy`.

One driver: :func:`evaluate_policy` rolls each episode with
:func:`repro.sim.env.run_policy`, the single-environment episode loop, for
static and streaming environments alike.  The loop is policy-agnostic: the
same code evaluates a local agent, a baseline-scheduler adapter, an
:class:`~repro.policy.clients.InProcessClient` or a
:class:`~repro.serve.client.RemoteClient` — whatever answers
``decide(obs)``.  Episode *i* is seeded from child *i* of one root seed, so
two evaluations with the same ``(spec, seed)`` replay identical episode
streams decision-for-decision; the returned records carry the full action
sequence, which is what the local-vs-remote row-identity tests compare.
``repro evaluate`` runs this function with the local agent or, with
``--server``, with a remote client, so both print the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.policy.api import Policy
from repro.sim.env import SchedulingEnv, run_policy
from repro.sim.streaming import StreamingSchedulingEnv
from repro.utils.seeding import SeedLike, spawn_seed_sequences


@dataclass(frozen=True)
class EpisodeRecord:
    """Full trace of one evaluated episode (the row of row-identity)."""

    makespan: float
    heft_makespan: float
    reward: float
    actions: Tuple[int, ...]
    """every action taken, in decision order"""

    @property
    def num_decisions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class StreamingEpisodeRecord:
    """Full trace of one streaming (multi-job) episode.

    ``reward`` is the episode *return* (sum over steps — streaming rewards
    are dense), and the per-job vectors make the record self-describing: the
    row-identity tests compare whole records, so a served evaluation must
    reproduce every action **and** every JCT bit-for-bit.
    """

    makespan: float
    heft_makespan: float
    """sum of per-job ideal (empty-platform HEFT) makespans"""
    reward: float
    actions: Tuple[int, ...]
    num_jobs: int
    mean_jct: float
    mean_slowdown: float
    jcts: Tuple[float, ...]
    slowdowns: Tuple[float, ...]
    arrivals: Tuple[float, ...]

    @property
    def num_decisions(self) -> int:
        return len(self.actions)


def evaluate_policy(
    env: SchedulingEnv,
    policy: Policy,
    episodes: int = 1,
    seed: SeedLike = 0,
    max_decisions: int = 1_000_000,
) -> Union[List[EpisodeRecord], List[StreamingEpisodeRecord]]:
    """Roll ``episodes`` full episodes of ``env`` under ``policy``.

    Each episode is one :func:`~repro.sim.env.run_policy` call that re-seeds
    the environment with an independent child of ``seed`` (one root,
    :func:`~repro.utils.seeding.spawn_seed_sequences`), so the episode stream
    depends only on ``(env instance, seed)`` — not on the policy, prior
    history, or the transport the policy sits behind.  A streaming
    environment yields :class:`StreamingEpisodeRecord` rows, any other an
    :class:`EpisodeRecord` per episode.  ``max_decisions`` guards against
    runaway-pass policies.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    record = (
        _streaming_record if isinstance(env, StreamingSchedulingEnv) else _record
    )
    return [
        record(run_policy(env, policy, max_steps=max_decisions, seed=child))
        for child in spawn_seed_sequences(seed, episodes)
    ]


def _record(info: dict) -> EpisodeRecord:
    return EpisodeRecord(
        makespan=float(info["makespan"]),
        heft_makespan=float(info["heft_makespan"]),
        reward=float(info["reward"]),
        actions=info["actions"],
    )


def _streaming_record(info: dict) -> StreamingEpisodeRecord:
    return StreamingEpisodeRecord(
        makespan=float(info["makespan"]),
        heft_makespan=float(info["heft_makespan"]),
        reward=info["return"],
        actions=info["actions"],
        num_jobs=int(info["num_jobs"]),
        mean_jct=float(info["mean_jct"]),
        mean_slowdown=float(info["mean_slowdown"]),
        jcts=tuple(float(v) for v in info["jcts"]),
        slowdowns=tuple(float(v) for v in info["slowdowns"]),
        arrivals=tuple(float(v) for v in info["arrivals"]),
    )
