"""The READYS agent network (paper Fig. 2).

Architecture, bottom to top:

* a stack of ``g`` GCN layers over the window sub-DAG (node features are the
  paper's raw features enriched with resource state) with ReLU activations,
  producing an internal representation ``H`` of every node in the window;
* **critic**: mean-pooling of ``H`` followed by a one-dimensional projection
  → state value ``V``;
* **actor**: the embeddings of the *ready* tasks are projected to one scalar
  score each; the ∅ action's score is a projection of the concatenation of
  the max-pooled DAG representation with the current-processor descriptor;
  a softmax over [task scores, ∅ score] gives the policy π.

The number of GCN layers defaults to ``max(window, 1)`` — the paper finds
``g = w`` layers suffice for window information to reach the ready tasks.

Two forwards run the same network.  :meth:`ReadysAgent.forward` and
:meth:`ReadysAgent._forward_batch_tensors` build it on the autograd tape:
grad mode, the training losses and the reference every other path is
checked against.  The policy helpers (:meth:`action_distribution`,
:meth:`sample_action`, :meth:`greedy_action`, :meth:`state_value` and their
batched variants) run :mod:`repro.nn.array_forward` instead — the tape's
exact op sequence on the parameter arrays, with no ``Tensor`` and no
backward closure, bitwise equal to the tape.  A batch of one takes the
single-observation mirror of :meth:`forward`, so it is bit-identical to the
unbatched helper.  The array training step
(:func:`~repro.nn.compile.array_step`) runs the same batched function as its
forward half; :meth:`_forward_batch_tensors` builds the tape's loss graph on
the updates it falls back on.  Every batched forward reads one
:class:`~repro.sim.state.ObservationBatch`: the state builder's batch as it
is, or :meth:`ObservationBatch.of <repro.sim.state.ObservationBatch.of>` a
list of observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.nn import functional as F
from repro.nn.array_forward import batch_forward, single_forward
from repro.nn.layers import GCNStack, Linear, Module
from repro.nn.tensor import Tensor
from repro.sim.state import Observation, ObservationBatch
from repro.utils.seeding import SeedLike, as_generator


@dataclass(frozen=True)
class AgentConfig:
    """Hyper-parameters of the READYS network."""

    feature_dim: int
    """width of the node feature rows (see ``observation_feature_dim``)"""
    proc_feature_dim: int
    """width of the current-processor descriptor"""
    hidden_dim: int = 64
    """GCN embedding width"""
    num_gcn_layers: int = 2
    """``g`` — number of stacked graph convolutions"""

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.proc_feature_dim < 1:
            raise ValueError("feature dims must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_gcn_layers < 1:
            raise ValueError("num_gcn_layers must be >= 1")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """``F.log_softmax``'s op sequence on an array: ``x - logsumexp(x)``
    with a max shift."""
    shift = logits.max(axis=-1, keepdims=True)
    return logits - (np.log(np.exp(logits - shift).sum(axis=-1, keepdims=True)) + shift)


def segment_argmax(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``np.argmax`` of every segment ``flat[offsets[i]:offsets[i+1]]``.

    Segment maxima by ``np.maximum.reduceat``, then the first position
    equal to its segment's maximum: ties keep the first index, as
    ``np.argmax`` does.  Segments must be non-empty.
    """
    starts = offsets[:-1]
    counts = np.diff(offsets)
    peaks = np.maximum.reduceat(flat, starts)
    if np.isnan(peaks).any():  # argmax answers the first NaN; keep its rule
        return np.array(
            [int(np.argmax(flat[a:b])) for a, b in zip(offsets[:-1], offsets[1:])],
            dtype=np.int64,
        )
    hits = np.flatnonzero(flat == np.repeat(peaks, counts))
    return hits[np.searchsorted(hits, starts)] - starts


def segment_choice(
    p: np.ndarray, offsets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``rng.choice(n, p=s)`` for every segment ``s = p[offsets[i]:offsets[i+1]]``,
    in order, bitwise — from one ``rng.random(K)`` draw.

    ``Generator.choice`` draws one uniform ``u`` per call (a length-1
    segment too) and answers ``cdf.searchsorted(u, side="right")`` for
    ``cdf = s.cumsum(); cdf /= cdf[-1]``.  Here the segments sit as
    zero-padded rows of one matrix: a row-wise cumsum adds in each
    segment's own order, the padding repeats the row's last entry (so it
    divides to exactly 1.0 > u), and a right-side searchsorted on a sorted
    row is its count of entries ≤ u.  ``choice``'s input check is kept.
    """
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(np.add.reduceat(p, starts) - 1.0) > np.sqrt(np.finfo(np.float64).eps)).any():
        raise ValueError("probabilities do not sum to 1")
    k = counts.size
    cdf = np.zeros((k, int(counts.max())))
    cdf[np.repeat(np.arange(k), counts), np.arange(p.size) - np.repeat(starts, counts)] = p
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[np.arange(k), counts - 1][:, None]
    u = rng.random(k)
    return np.count_nonzero(cdf <= u[:, None], axis=1).astype(np.int64)


@dataclass
class BatchedForward:
    """Flat result of one batched forward over B observations.

    The logits of every observation live concatenated in one tensor so that a
    whole unroll's policy losses reduce to a handful of segment ops; callers
    that want the per-observation view slice with ``action_offsets``.
    """

    logits: Tensor
    """(Σ num_actionsᵢ,) per-action scores, observation-major"""
    values: Tensor
    """(B,) state values"""
    action_segments: np.ndarray
    """observation index of every flat logit entry"""
    action_offsets: np.ndarray
    """(B+1,) prefix offsets: obs i's logits are ``logits[off[i]:off[i+1]]``"""

    @property
    def num_observations(self) -> int:
        return len(self.action_offsets) - 1

    def logits_of(self, i: int) -> Tensor:
        """Graph-connected logits slice of observation ``i``."""
        return self.logits[slice(int(self.action_offsets[i]), int(self.action_offsets[i + 1]))]


class ReadysAgent(Module):
    """GCN encoder + actor/critic heads."""

    def __init__(self, config: AgentConfig, rng: SeedLike = None) -> None:
        rng = as_generator(rng)
        self.config = config
        self.gcn = GCNStack(
            config.feature_dim, config.hidden_dim, config.num_gcn_layers, rng=rng
        )
        self.task_score = Linear(config.hidden_dim, 1, rng=rng)
        self.pass_score = Linear(config.hidden_dim + config.proc_feature_dim, 1, rng=rng)
        self.value_head = Linear(config.hidden_dim, 1, rng=rng)
        # bound once: the forwards read p.data per call, because
        # load_state_dict rebinds the arrays but never the Parameters
        self._params = self.parameters()

    def forward(self, obs: Observation) -> Tuple[Tensor, Tensor]:
        """Return ``(logits, value)`` for one observation.

        ``logits`` has one entry per ready task, plus a final entry for the
        ∅ action when it is legal.  ``value`` is a 1-element tensor.
        """
        if len(obs.ready_positions) == 0:
            raise ValueError("observation has no ready task — not a decision point")
        h = self.gcn(Tensor(obs.features), obs.norm_adj)  # (m, hidden)

        value = self.value_head(F.mean_pool(h))  # (1,)

        ready_emb = h[np.asarray(obs.ready_positions)]  # (A, hidden)
        task_logits = self.task_score(ready_emb).reshape(-1)  # (A,)

        if obs.allow_pass:
            pooled = F.max_pool(h)  # (hidden,)
            ctx = Tensor.concatenate([pooled, Tensor(obs.proc_features)], axis=0)
            pass_logit = self.pass_score(ctx)  # (1,)
            logits = Tensor.concatenate([task_logits, pass_logit], axis=0)
        else:
            logits = task_logits
        return logits, value

    # ------------------------------------------------------------------ #
    # batched forward
    # ------------------------------------------------------------------ #

    def _forward_batch_tensors(self, batch: ObservationBatch) -> Tuple[Tensor, Tensor]:
        """The tensor-op half of the batched forward."""
        k = len(batch)
        h = self.gcn(Tensor(batch.feats), batch.norm_adj)  # (Σm, hidden)

        values = self.value_head(F.segment_mean_pool(h, batch.graph_ids, k)).reshape(-1)

        task_logits = self.task_score(h[batch.ready_rows]).reshape(-1)  # (Σ Aᵢ,)

        if batch.pass_idx.size:
            pooled = F.segment_max_pool(h, batch.graph_ids, k)  # (B, hidden)
            ctx = Tensor.concatenate(
                [pooled[batch.pass_idx], Tensor(batch.proc_stack)], axis=1
            )
            pass_logits = self.pass_score(ctx).reshape(-1)  # (n_pass,)
            combined = Tensor.concatenate([task_logits, pass_logits])
        else:
            combined = task_logits
        logits = combined[batch.perm]
        return logits, values

    def forward_batch_flat(self, obs_list: Sequence[Observation]) -> BatchedForward:
        """One GCN pass over B observations stacked block-diagonally.

        Numerically equivalent to B calls of :meth:`forward` (same math; the
        only differences are floating-point summation orders).  The B == 1
        case routes through :meth:`forward` so a one-element batch is
        *bit-identical* to the single-observation path — this is what lets a
        K=1 vectorised trainer reproduce the legacy trainer exactly.
        """
        if len(obs_list) == 1:
            logits, value = self.forward(obs_list[0])
            n = logits.shape[0]
            return BatchedForward(
                logits=logits,
                values=value,
                action_segments=np.zeros(n, dtype=np.int64),
                action_offsets=np.array([0, n], dtype=np.int64),
            )

        return self._forward_batch(ObservationBatch.of(obs_list))

    def _forward_batch(self, batch: ObservationBatch) -> BatchedForward:
        """The batched forward over a batch (B >= 1, no B == 1 routing)."""
        logits, values = self._forward_batch_tensors(batch)
        return BatchedForward(
            logits=logits,
            values=values,
            action_segments=batch.action_segments,
            action_offsets=batch.action_offsets,
        )

    def forward_batch(
        self, obs_list: Sequence[Observation]
    ) -> Tuple[List[Tensor], Tensor]:
        """Batched :meth:`forward`: per-observation logits plus a (B,) value tensor.

        ``forward_batch([o1, …, oB])`` matches ``[forward(o1), …, forward(oB)]``
        to numerical precision; all returned tensors share one autograd graph,
        so losses built from them backpropagate through a single batched pass.
        """
        bf = self.forward_batch_flat(obs_list)
        logits_list = [bf.logits_of(i) for i in range(bf.num_observations)]
        return logits_list, bf.values

    # ------------------------------------------------------------------ #
    # policy helpers (tape-free; see repro.nn.array_forward)
    # ------------------------------------------------------------------ #

    def _weights(self) -> List[np.ndarray]:
        """The live parameter arrays, in :meth:`parameters` order."""
        return [p.data for p in self._params]

    def _forward_arrays(self, obs: Observation) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` without the tape: ``(logits, value)`` arrays,
        bitwise equal to its tensors' data."""
        if len(obs.ready_positions) == 0:
            raise ValueError("observation has no ready task — not a decision point")
        return single_forward(
            self._weights(),
            obs.features,
            obs.adjacency_parts(),
            obs.ready_positions,
            obs.proc_features if obs.allow_pass else None,
        )

    def _batch_arrays(
        self, obs_list: Sequence[Observation]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batched forward without the tape: flat logits, (B,) values
        and the (B+1,) action offsets — bitwise equal to
        :meth:`_forward_batch`'s tensors."""
        batch = ObservationBatch.of(obs_list)
        fwd = batch_forward(self._weights(), batch, None)
        return fwd.logits, fwd.values, batch.action_offsets

    def action_distribution(self, obs: Observation) -> np.ndarray:
        """π(a|s) as a plain probability vector (no grad)."""
        tracer = _obs.TRACER
        handle = (
            tracer.begin("forward", batch=1, nodes=obs.num_nodes)
            if tracer.enabled
            else None
        )
        logits, _ = self._forward_arrays(obs)
        probs = np.exp(_log_softmax(logits))  # F.softmax's op sequence
        if handle is not None:
            tracer.end(handle)
        return probs

    def log_policy(self, obs: Observation) -> Tuple[np.ndarray, float]:
        """``(logπ(·|s), V(s))`` without the tape, bitwise equal to
        ``F.log_softmax`` of :meth:`forward`'s logits and its value."""
        logits, value = self._forward_arrays(obs)
        return _log_softmax(logits), float(value[0])

    def sample_action(self, obs: Observation, rng: np.random.Generator) -> int:
        """Draw an action from π(a|s)."""
        probs = self.action_distribution(obs)
        return int(rng.choice(len(probs), p=probs))

    def greedy_action(self, obs: Observation) -> int:
        """The mode of π(a|s) — used for deterministic evaluation."""
        tracer = _obs.TRACER
        handle = (
            tracer.begin("forward", batch=1, nodes=obs.num_nodes)
            if tracer.enabled
            else None
        )
        logits, _ = self._forward_arrays(obs)
        action = int(np.argmax(logits))
        if handle is not None:
            tracer.end(handle)
        return action

    def state_value(self, obs: Observation) -> float:
        """V(s) as a float (no grad) — the bootstrap target for unrolls."""
        return float(self._forward_arrays(obs)[1][0])

    # ------------------------------------------------------------------ #
    # batched policy helpers (one network pass for K environments)
    # ------------------------------------------------------------------ #

    def _distributions_flat(
        self, obs_list: Sequence[Observation]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """π(a|s) of every observation, flat, with the (B+1,) action offsets."""
        if len(obs_list) == 1:
            # single-observation route — bit-identical to action_distribution
            probs = self.action_distribution(obs_list[0])
            return probs, np.array([0, probs.size])
        tracer = _obs.TRACER
        handle = (
            tracer.begin("forward", batch=len(obs_list))
            if tracer.enabled
            else None
        )
        flat, _, off = self._batch_arrays(obs_list)
        # all B softmaxes in three segment ops over the flat logits
        starts = off[:-1]
        counts = np.diff(off)
        p = np.exp(flat - np.repeat(np.maximum.reduceat(flat, starts), counts))
        p /= np.repeat(np.add.reduceat(p, starts), counts)
        if handle is not None:
            tracer.end(handle)
        return p, off

    def action_distributions(self, obs_list: Sequence[Observation]) -> List[np.ndarray]:
        """π(a|s) for every observation via one batched pass (no grad)."""
        p, off = self._distributions_flat(obs_list)
        return np.split(p, off[1:-1])

    def sample_actions(
        self, obs_list: Sequence[Observation], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one action per observation; one rng draw per env, in order
        (bitwise what per-observation :meth:`sample_action` calls draw)."""
        p, off = self._distributions_flat(obs_list)
        return segment_choice(p, off, rng)

    def greedy_actions(self, obs_list: Sequence[Observation]) -> np.ndarray:
        """Batched :meth:`greedy_action` — deterministic evaluation at scale.

        One block-diagonal forward answers every observation; the batch may
        mix decision points from unrelated episodes.  This is the primitive
        behind ``repro.policy.AgentPolicy.decide_many`` and therefore behind
        the decision server's cross-episode micro-batching (DESIGN.md §13).
        """
        if len(obs_list) == 1:
            return np.array([self.greedy_action(obs_list[0])], dtype=np.int64)
        tracer = _obs.TRACER
        handle = (
            tracer.begin("forward", batch=len(obs_list))
            if tracer.enabled
            else None
        )
        logits, _, off = self._batch_arrays(obs_list)
        actions = segment_argmax(logits, off)
        if handle is not None:
            tracer.end(handle)
        return actions

    def state_values(self, obs_list: Sequence[Observation]) -> np.ndarray:
        """Batched :meth:`state_value` — bootstrap targets for K unrolls."""
        if len(obs_list) == 1:
            return np.array([self.state_value(obs_list[0])])
        return self._batch_arrays(obs_list)[1]
