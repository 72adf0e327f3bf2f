"""Tape-free forward of the READYS network over plain parameter arrays.

Every no-grad decision — rollouts, evaluation, the decision server — and the
forward half of the array training step run this one function.  It
performs the autograd forward's exact op sequence (``h @ W``, CSR spmm,
``+ b``, ReLU, ``reduceat`` mean/max pools, the three heads and the ``perm``
gather) on raw arrays, so it makes no ``Tensor`` and no backward closure and
its logits and values equal the tape's bit for bit.  When the C fusion core
(:mod:`repro.nn.fusion`) is loaded, ``spmm_bias_relu`` and ``pool_fwd``
stream the memory-bound passes; they reproduce the NumPy sequence bitwise.
Only the training step passes the core: at decision-sized windows its
per-call ctypes overhead and scalar epilogue made it slower than the NumPy
kernels, so inference calls ``batch_forward(..., fu=None)``.

It is not a compiler: nothing is captured, cached or validated, and it holds
no buffers between calls.  Inference gets fresh arrays; the training step
passes its allocator and reads back the intermediates its backward needs
(:class:`ForwardArrays`).

``weights`` is the agent's parameter arrays in ``agent.parameters()`` order:
``W, b`` of every GCN layer, then the task, pass and value heads.
:func:`batch_forward` reads one :class:`repro.sim.state.ObservationBatch`
(its stacked features, block-diagonal CSR parts and action layout);
:func:`single_forward` reads one observation's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro.nn import fusion

try:  # scipy's C kernel behind ``csr @ dense``, with a caller-owned output
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - exotic scipy builds
    _sparsetools = None

__all__ = ["ForwardArrays", "batch_forward", "csr_matmul_out", "fusion_for", "single_forward"]

#: ``alloc(name, shape, dtype)`` → an array of that shape; the training
#: step hands in its owned buffers, inference gets ``np.empty``
Allocator = Callable[..., np.ndarray]


def _fresh(name: str, shape: Tuple[int, ...], dtype: Any = np.float64) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


def fusion_for(hidden: int) -> Optional[fusion.FusionLib]:
    """The fusion core when it is loaded and ``hidden`` fits its stack
    accumulators, else ``None`` (the NumPy kernels)."""
    return fusion.load() if 0 < hidden <= fusion.MAX_WIDTH else None


def csr_matmul_out(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
    x: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """``out[:] = A @ x`` for the CSR ``A`` with ``out.shape[0]`` rows and
    ``x.shape[0]`` columns — bitwise equal to scipy's ``csr @ x``, which
    runs the same ``csr_matvecs`` kernel (it accumulates, so ``out`` is
    zeroed first)."""
    m, n = out.shape[0], x.shape[0]
    if _sparsetools is None or not (x.flags.c_contiguous and out.flags.c_contiguous):
        out[...] = sp.csr_matrix((data, indices, indptr), shape=(m, n)) @ x
        return out
    out.fill(0.0)
    _sparsetools.csr_matvecs(m, n, x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
    return out


def _gcn_stack(
    weights: Sequence[np.ndarray],
    feats: np.ndarray,
    adj: Tuple[np.ndarray, np.ndarray, np.ndarray],
    fu: Optional[fusion.FusionLib],
    alloc: Allocator,
    keep: bool,
) -> Tuple[List[np.ndarray], List[Optional[np.ndarray]]]:
    """Every GCN layer ``relu(Â (h W) + b)``; ``adj`` is ``Â``'s
    ``(indptr, indices, data)`` CSR parts.  Returns the layer outputs and
    their ReLU masks (``None`` where no kernel formed one and ``keep`` is
    off)."""
    m = feats.shape[0]
    fused = fu is not None
    h = feats
    layers: List[np.ndarray] = []
    masks: List[Optional[np.ndarray]] = []
    for i in range(len(weights) // 2 - 3):
        w, b = weights[2 * i], weights[2 * i + 1]
        shape = (m, w.shape[1])
        hw = np.matmul(h, w, out=alloc("hw", shape))
        h = alloc(f"h{i}", shape)
        mask = alloc(f"mask{i}", shape, np.bool_) if fused or keep else None
        if fused:
            fu.spmm_bias_relu(*adj, b, hw, h, mask)
        else:
            csr_matmul_out(*adj, hw, h)
            np.add(h, b, out=h)
            if mask is not None:
                np.greater(h, 0.0, out=mask)
            np.fmax(h, 0.0, out=h)  # in place; the tape's np.where up to ±0
        layers.append(h)
        masks.append(mask)
    return layers, masks


@dataclass
class ForwardArrays:
    """Result of :func:`batch_forward`, with what a backward pass reads."""

    logits: np.ndarray
    """(Σ num_actionsᵢ,) per-action scores, observation-major"""
    values: np.ndarray
    """(B,) state values"""
    layers: List[np.ndarray]
    """every GCN layer's output; the last is the node embedding ``h``"""
    masks: List[Optional[np.ndarray]]
    """every layer's ReLU mask (None on the NumPy path without ``alloc``)"""
    counts: np.ndarray
    """(B, 1) node count of every window, the mean-pool divisor"""
    mean_pool: np.ndarray
    """(B, hidden) mean-pooled embeddings, the value head's input"""
    tie_mask: Optional[np.ndarray]
    """(Σm, hidden) where ``h`` equals its window's maximum"""
    tie_counts: Optional[np.ndarray]
    """(B, hidden) number of ties per window and column"""
    ready_h: np.ndarray
    """(Σ Aᵢ, hidden) embeddings of the ready rows, the task head's input"""
    ctx: Optional[np.ndarray]
    """(P, hidden + proc) pass head input, None when no member may pass"""


def batch_forward(
    weights: Sequence[np.ndarray],
    batch: Any,
    fu: Optional[fusion.FusionLib],
    alloc: Optional[Allocator] = None,
) -> ForwardArrays:
    """The batched forward over ``batch`` (a
    :class:`repro.sim.state.ObservationBatch`).

    Mirrors ``ReadysAgent._forward_batch_tensors`` op for op.  With
    ``alloc`` (the training step) every array comes from it and the NumPy
    path also forms the ReLU masks and max-pool tie statistics the backward
    reads; the fused kernels form them either way.
    """
    if batch.adj_indptr.size - 1 != batch.feats.shape[0]:
        # the spmm kernels index rows by indptr unchecked
        raise ValueError(
            f"feature rows {batch.feats.shape[0]} != adjacency size "
            f"{batch.adj_indptr.size - 1}"
        )
    keep = alloc is not None
    alloc = alloc or _fresh
    adj = (batch.adj_indptr, batch.adj_indices, batch.adj_data)
    layers, masks = _gcn_stack(weights, batch.feats, adj, fu, alloc, keep)
    h = layers[-1]
    m, hidden = h.shape
    n = len(batch)
    w_task, b_task, w_pass, b_pass, w_value, b_value = weights[-6:]

    # ---- mean and max pools over every window ---- #
    starts = np.ascontiguousarray(batch.node_offsets[:-1], dtype=np.int64)
    counts = np.diff(batch.node_offsets).astype(np.float64).reshape(n, 1)
    mp = alloc("mp", (n, hidden))
    pooled = alloc("pooled", (n, hidden))
    tie_mask = tie_counts = None
    if fu is not None:
        # one sweep of h: the mean-pool sums, the max pool and its tie
        # mask/counts (tie counts sum exact small integers, so any
        # association gives the reduceat bits)
        tie_mask = alloc("pmask", (m, hidden), np.bool_)
        tie_counts = alloc("pcounts", (n, hidden))
        fu.pool_fwd(starts, h, mp, pooled, tie_mask, tie_counts)
    else:
        np.add.reduceat(h, starts, axis=0, out=mp)
        np.maximum.reduceat(h, starts, axis=0, out=pooled)
        if keep:
            gather_a = alloc("gather_a", (m, hidden))
            np.take(pooled, batch.graph_ids, axis=0, out=gather_a)
            tie_mask = np.equal(h, gather_a, out=alloc("pmask", (m, hidden), np.bool_))
            gather_b = alloc("gather_b", (m, hidden))
            np.copyto(gather_b, tie_mask, casting="unsafe")
            tie_counts = alloc("pcounts", (n, hidden))
            np.add.reduceat(gather_b, starts, axis=0, out=tie_counts)
    np.divide(mp, counts, out=mp)

    # ---- value head over the mean pool ---- #
    vh = np.matmul(mp, w_value, out=alloc("vh", (n, 1)))
    np.add(vh, b_value, out=vh)

    # ---- task scores over the ready rows ---- #
    r = batch.ready_rows.size
    ready_h = np.take(h, batch.ready_rows, axis=0, out=alloc("ready_h", (r, hidden)))
    task_s = np.matmul(ready_h, w_task, out=alloc("task_s", (r, 1)))
    np.add(task_s, b_task, out=task_s)

    # ---- pass scores over max pool ‖ processor features ---- #
    p = batch.pass_idx.size
    comb = alloc("comb", (r + p,))
    comb[:r] = task_s.ravel()
    ctx = None
    if p:
        ctx = alloc("ctx", (p, hidden + batch.proc_stack.shape[1]))
        ctx[:, :hidden] = pooled[batch.pass_idx]
        ctx[:, hidden:] = batch.proc_stack
        pass_s = np.matmul(ctx, w_pass, out=alloc("pass_s", (p, 1)))
        np.add(pass_s, b_pass, out=pass_s)
        comb[r:] = pass_s.ravel()

    # ---- logits in observation order ---- #
    logits = np.take(comb, batch.perm, out=alloc("logits", (r + p,)))
    return ForwardArrays(
        logits=logits, values=vh.ravel(), layers=layers, masks=masks,
        counts=counts, mean_pool=mp, tie_mask=tie_mask,
        tie_counts=tie_counts, ready_h=ready_h, ctx=ctx,
    )


def single_forward(
    weights: Sequence[np.ndarray],
    features: np.ndarray,
    adj_parts: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ready_positions: np.ndarray,
    proc_features: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(logits, value)`` of one observation, mirroring ``ReadysAgent.forward``
    op for op: the ``(data, indices, indptr)`` CSR parts of ``norm_adj``
    (``Observation.adjacency_parts()``), ``sum(axis=0) / m`` and
    ``max(axis=0)`` pools.  ``proc_features`` is None when ∅ is illegal."""
    feats = np.asarray(features, dtype=np.float64)
    m = feats.shape[0]
    data, indices, indptr = adj_parts
    if indptr.size - 1 != m:
        raise ValueError(f"feature rows {m} != adjacency size {indptr.size - 1}")
    # csr_matvecs reads raw buffers: contiguous, float64 values
    adj = (
        np.ascontiguousarray(indptr),
        np.ascontiguousarray(indices),
        np.ascontiguousarray(data, dtype=np.float64),
    )
    layers, _ = _gcn_stack(weights, feats, adj, None, _fresh, keep=False)
    h = layers[-1]
    w_task, b_task, w_pass, b_pass, w_value, b_value = weights[-6:]
    value = (h.sum(axis=0) / float(m)) @ w_value + b_value
    logits = (h[np.asarray(ready_positions)] @ w_task + b_task).reshape(-1)
    if proc_features is not None:
        ctx = np.concatenate([h.max(axis=0), np.asarray(proc_features, dtype=np.float64)])
        logits = np.concatenate([logits, ctx @ w_pass + b_pass])
    return logits, value
