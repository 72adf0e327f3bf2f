"""Functional ops composed from :class:`~repro.nn.tensor.Tensor` primitives.

These are the building blocks of the READYS heads: numerically stable
softmax/log-softmax over action scores, pooling over node embeddings
(mean-pool for the critic, max-pool for the ∅-action score, paper Fig. 2),
and the scalar losses used by A2C.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return x.sigmoid()


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``.

    The max-shift uses a detached maximum, so gradients flow exactly as for
    the unshifted expression.
    """
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(_dropped_axis_shape(x.shape, axis))
    return out


def _dropped_axis_shape(shape, axis):
    axis = axis % len(shape)
    return tuple(s for i, s in enumerate(shape) if i != axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable via max shift)."""
    return log_softmax(x, axis=axis).exp()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable via max shift)."""
    return x - logsumexp(x, axis=axis, keepdims=True)


def entropy(logits: Tensor, axis: int = -1) -> Tensor:
    """Shannon entropy of the categorical distribution given by ``logits``.

    Computed as ``-(softmax(l) * log_softmax(l)).sum()``; used as the
    exploration bonus β·H(π(s)) in the A2C policy loss (paper §IV-A).
    """
    logp = log_softmax(logits, axis=axis)
    p = logp.exp()
    return -(p * logp).sum(axis=axis)


def mean_pool(node_embeddings: Tensor) -> Tensor:
    """Mean over the node axis (rows) — critic pooling in Fig. 2."""
    return node_embeddings.mean(axis=0)


def max_pool(node_embeddings: Tensor) -> Tensor:
    """Max over the node axis (rows) — ∅-score pooling in Fig. 2."""
    return node_embeddings.max(axis=0)


# --------------------------------------------------------------------------- #
# segment (per-graph) reductions — the batching primitives
# --------------------------------------------------------------------------- #
#
# A batch of K window sub-DAGs is processed as one block-diagonal graph whose
# rows are the concatenated nodes of all members; ``segment_ids[r]`` names the
# member graph that row r belongs to.  The per-graph poolings of Fig. 2 then
# become segment reductions, so one GCN pass + one reduction serves the whole
# batch (Decima-style batching; per-call overhead dominates on these sizes).


def _check_segments(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != x.shape[0]:
        raise ValueError(
            f"segment_ids must be 1-D with one entry per row, got shape "
            f"{ids.shape} for {x.shape[0]} rows"
        )
    if num_segments < 1:
        raise ValueError(f"num_segments must be >= 1, got {num_segments}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment_ids out of range")
    return ids


def _contiguous_starts(
    ids: np.ndarray, num_segments: int
) -> Optional[np.ndarray]:
    """Per-segment start offsets when ids are sorted with no empty segment.

    Block-diagonal batches always produce such ids (``np.repeat(arange, …)``),
    which unlocks ``np.ufunc.reduceat`` — far faster than the generic
    ``np.ufunc.at`` scatter path.  Returns None when the layout doesn't apply.
    """
    if ids.size == 0 or not bool((ids[1:] >= ids[:-1]).all()):
        return None
    counts = np.bincount(ids, minlength=num_segments)
    if counts.min() == 0:
        return None
    return np.concatenate(([0], np.cumsum(counts[:-1])))


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Row-wise sum per segment: out[s] = Σ_{i: ids[i]=s} x[i]."""
    ids = _check_segments(x, segment_ids, num_segments)
    starts = _contiguous_starts(ids, num_segments)
    if starts is not None:
        out_data = np.add.reduceat(x.data, starts, axis=0)
    else:
        out_data = np.zeros((num_segments,) + x.shape[1:], dtype=np.float64)
        np.add.at(out_data, ids, x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.asarray(g)[ids])

    return x._make(out_data, (x,), backward)


def segment_mean_pool(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment :func:`mean_pool` — batched critic pooling.

    Every segment must be non-empty (a window sub-DAG always has nodes).
    """
    ids = _check_segments(x, segment_ids, num_segments)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    if (counts == 0).any():
        raise ValueError("segment_mean_pool requires every segment non-empty")
    shape = (num_segments,) + (1,) * (x.ndim - 1)
    return segment_sum(x, ids, num_segments) / counts.reshape(shape)


def segment_max_pool(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment :func:`max_pool` — batched ∅-score pooling.

    The gradient is split equally among ties, matching ``Tensor.max``.
    """
    ids = _check_segments(x, segment_ids, num_segments)
    if ids.size == 0 or np.bincount(ids, minlength=num_segments).min() == 0:
        raise ValueError("segment_max_pool requires every segment non-empty")
    starts = _contiguous_starts(ids, num_segments)
    if starts is not None:
        out_data = np.maximum.reduceat(x.data, starts, axis=0)
        mask = x.data == out_data[ids]
        counts = np.add.reduceat(mask.astype(np.float64), starts, axis=0)
    else:
        out_data = np.full((num_segments,) + x.shape[1:], -np.inf)
        np.maximum.at(out_data, ids, x.data)
        mask = x.data == out_data[ids]
        counts = np.zeros_like(out_data)
        np.add.at(counts, ids, mask.astype(np.float64))

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.where(mask, np.asarray(g)[ids] / counts[ids], 0.0))

    return x._make(out_data, (x,), backward)


def segment_log_softmax(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Log-softmax normalised independently within each segment of a flat vector.

    Batches the per-observation policy normalisation of A2C: the logits of a
    whole unroll live in one tensor, ``segment_ids`` marking which decision
    each entry belongs to.  Stable via a detached per-segment max shift.
    """
    ids = _check_segments(x, segment_ids, num_segments)
    if x.ndim != 1:
        raise ValueError("segment_log_softmax expects a flat 1-D logit vector")
    starts = _contiguous_starts(ids, num_segments)
    if starts is not None:
        shift_data = np.maximum.reduceat(x.data, starts)
    else:
        shift_data = np.full(num_segments, -np.inf)
        np.maximum.at(shift_data, ids, x.data)
    shift = Tensor(shift_data)  # detached, like logsumexp's max shift
    z = (x - shift[ids]).exp()
    lse = segment_sum(z, ids, num_segments).log() + shift
    return x - lse[ids]


def clipped_surrogate(
    log_probs: Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
) -> Tensor:
    """Per-transition PPO clipped-surrogate objective terms (negated).

    ``log_probs`` are the current policy's log-probabilities of the taken
    actions; ``old_log_probs``/``advantages`` are rollout-time constants.
    Each term is ``ratio * (-advantage)`` when the probability ratio is
    inside the trust region and a zero-valued, zero-gradient term when the
    clip binds (PPO's pessimistic min, expressed as a constant keep-mask so
    the whole batch stays one fused elementwise expression).  Minimising the
    sum of these terms maximises the clipped surrogate.
    """
    if not 0.0 < clip_epsilon < 1.0:
        raise ValueError(f"clip_epsilon must be in (0, 1), got {clip_epsilon}")
    old = np.asarray(old_log_probs, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    if old.shape != log_probs.shape or adv.shape != log_probs.shape:
        raise ValueError(
            f"shape mismatch: log_probs {log_probs.shape}, "
            f"old_log_probs {old.shape}, advantages {adv.shape}"
        )
    ratio = (log_probs - Tensor(old)).exp()
    r = ratio.data
    lo, hi = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    # clip binds when moving further in the advantage direction would leave
    # the trust region; the surrogate is then flat (constant) in the policy
    clipped = ((adv >= 0.0) & (r > hi)) | ((adv < 0.0) & (r < lo))
    return ratio * Tensor(np.where(clipped, 0.0, -adv))


def entropy_bonus(log_probs: Tensor) -> Tensor:
    """Total Shannon entropy of already-normalised log-probabilities.

    ``-(Σ exp(lp)·lp)`` over every entry: for a flat vector of per-decision
    :func:`segment_log_softmax` outputs this sums the per-decision entropies,
    giving the exploration bonus term β·H(π) of the A2C/PPO losses without a
    second normalisation pass.
    """
    p = log_probs.exp()
    return -(p * log_probs).sum()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error; the critic's Bellman-error loss."""
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss, an optional robust critic loss."""
    diff = (prediction - target).abs()
    d = np.asarray(diff.data)
    quad_mask = Tensor((d <= delta).astype(np.float64))
    lin_mask = Tensor((d > delta).astype(np.float64))
    quadratic = diff * diff * 0.5
    linear = diff * delta - 0.5 * delta * delta
    return (quadratic * quad_mask + linear * lin_mask).mean()


def masked_log_softmax(
    x: Tensor, mask: Optional[np.ndarray] = None, axis: int = -1
) -> Tensor:
    """Log-softmax where entries with ``mask == False`` get probability 0.

    The mask is applied by adding a large negative constant to masked logits
    *before* normalisation, so gradients for masked entries vanish.  Used for
    invalid actions (e.g. the ∅ action when idling would deadlock).
    """
    if mask is None:
        return log_softmax(x, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {x.shape}")
    if not mask.any():
        raise ValueError("mask must keep at least one entry")
    penalty = Tensor(np.where(mask, 0.0, -1e9))
    return log_softmax(x + penalty, axis=axis)
