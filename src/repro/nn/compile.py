"""The A2C/PPO training step on plain parameter arrays.

:func:`array_step` is one update's forward and backward over one
:class:`repro.sim.state.ObservationBatch`, as straight-line NumPy (plus the
optional C fusion core): the forward half is
:func:`repro.nn.array_forward.batch_forward`, the same tape-free function
every rollout, evaluation and served decision runs; the loss terms and the
backward follow, writing every parameter gradient into caller-owned arrays.
It performs the autograd tape's exact op sequence, minus dead branches, so
its loss, per-term stats and gradients equal the tape's bit for bit —
a property of the code, held by the differential suite
``tests/rl/test_array_step.py`` against ``tests/reference_tape.py``, not
checked at run time.

:class:`TrainingCompiler` owns the step: the flat gradient arena, one
named-buffer dict of working arrays and the counters.  It hands every
update it can take to :func:`array_step`, then clips and steps Adam over
the flat arena; the four updates it cannot take run on the tape.

The step owner is single-threaded by design — one per updater.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.array_forward import (
    Allocator,
    _fresh,
    batch_forward,
    csr_matmul_out,
    fusion_for,
)
from repro.nn.fusion import FusionLib
from repro.nn.sparse import transpose_csr
from repro.nn.tensor import is_anomaly_enabled, is_grad_enabled

__all__ = ["TrainingCompiler", "array_step"]


class TrainingCompiler:
    """Owner of the array training step (gradients + clip + Adam).

    :meth:`update` runs :func:`array_step` into a flat gradient arena, then
    ``clip_flat_grads`` + :meth:`Adam.step_flat` finish the update with a
    single norm reduction and a single fused moment update.  The clipped
    flat vector the tape path concatenates inside :func:`clip_grad_norm` is
    the same parameter-order concatenation, so the weight trajectories stay
    bitwise identical.

    Guarantees:

    * **live parameters** — the step reads ``p.data`` at call time, so
      checkpoint restores and optimizer writes need no invalidation;
    * **tape fallbacks** — grad disabled, ``detect_anomaly()``, a batch of
      one (it routes through the single-observation forward) and a batch
      without a pass head run on the tape; each adds one to ``fallbacks``;
    * **owned buffers** — one working buffer per name, replaced only when
      its shape changes, so the memory held is one update's worth.

    After a step each ``p.grad`` is rebound to its (clipped) arena view —
    **borrowed** memory, overwritten by the next step.
    """

    def __init__(self, agent: Any, optimizer: Any) -> None:
        from repro.nn.optim import Adam

        if not isinstance(optimizer, Adam):
            raise TypeError(
                f"compiled training fuses the Adam update; got "
                f"{type(optimizer).__name__}"
            )
        if optimizer.weight_decay != 0.0:
            raise ValueError(
                "compiled training requires weight_decay == 0 (the fused "
                f"step has no decay term); got {optimizer.weight_decay}"
            )
        # gradient-arena offsets must line up with the Adam slot offsets
        if [id(p) for p in optimizer.params] != [id(p) for p in agent._params]:
            raise ValueError(
                "optimizer parameter order does not match the agent's "
                "gcn/task/pass/value layout; compiled training requires the "
                "canonical Adam(agent.parameters()) construction"
            )
        self.agent = agent
        self.optimizer = optimizer
        self.tracer: Any = None  # duck-typed obs tracer, set by the updater
        self.array_steps = 0
        self.fallbacks = 0
        self._buffers: Dict[str, np.ndarray] = {}
        offsets = optimizer._offsets
        self._flat_grad = np.zeros(offsets[-1])
        self._grad_views = [
            self._flat_grad[a:b].reshape(p.data.shape)
            for p, a, b in zip(optimizer.params, offsets[:-1], offsets[1:])
        ]
        # None (no compiler, REPRO_NO_FUSION, a failed load-time check,
        # hidden wider than the stack accumulators) keeps the NumPy kernels
        self._fusion = fusion_for(agent.config.hidden_dim)

    def update(
        self, kind: str, batch: Any, actions: np.ndarray, consts: Dict[str, Any]
    ) -> Optional[Dict[str, float]]:
        """Run one full training step (gradients + clip + Adam) if possible.

        ``kind`` is ``"a2c"`` or ``"ppo"``; ``batch`` is the update's
        :class:`repro.sim.state.ObservationBatch`; ``consts`` carries
        the per-call numeric inputs (see :func:`array_step`) and
        ``max_grad_norm``.

        Returns the update's stats dict (including ``grad_norm``), or
        ``None`` when the caller must run the update on the tape.
        """
        if kind not in ("a2c", "ppo"):
            raise ValueError(f"unknown training-step kind {kind!r}")
        if (
            not is_grad_enabled()
            or is_anomaly_enabled()
            or len(batch) < 2
            or batch.pass_idx.size == 0
        ):
            self.fallbacks += 1
            return None
        stats = array_step(
            self.agent._weights(), batch, actions, consts, self._buf,
            kind=kind, grads=self._grad_views, fu=self._fusion, tracer=self.tracer,
        )
        self.array_steps += 1
        return self._apply_flat_step(stats, consts["max_grad_norm"])

    def stats_dict(self) -> Dict[str, float]:
        """Counters plus the buffer gauge, as a flat dict (for logs/benchmarks).

        ``arena_bytes`` is the bytes held by the working buffers.
        ``validation_failures`` is always 0: there is no run-time check any
        more; the key is kept only for the perf ledger's check.
        """
        return {
            "array_steps": self.array_steps,
            "fallbacks": self.fallbacks,
            "validation_failures": 0,
            "arena_bytes": sum(b.nbytes for b in self._buffers.values()),
        }

    def publish_metrics(self, registry, prefix: str = "train_compile") -> None:
        """Export the counters into a :class:`repro.obs` metrics registry."""
        if not registry.enabled:
            return
        for name, value in self.stats_dict().items():
            registry.gauge(f"{prefix}/{name}").set(float(value))

    def _apply_flat_step(
        self, stats: Dict[str, float], max_norm: float
    ) -> Dict[str, float]:
        from repro.nn.optim import clip_flat_grads

        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/optimizer") if traced else None
        grad_norm = clip_flat_grads(self._flat_grad, max_norm)
        self.optimizer.step_flat(self._flat_grad)
        # borrowed gradients: diagnostics can read them until the next step
        for p, view in zip(self.optimizer.params, self._grad_views):
            p.grad = view
            p._grad_owned = False
        if traced:
            tracer.end(handle)
        stats["grad_norm"] = grad_norm
        return stats

    def _buf(
        self, name: str, shape: Tuple[int, ...], dtype: Any = np.float64
    ) -> np.ndarray:
        """Owned working buffer, replaced only when its shape changes."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer


def array_step(
    weights: Sequence[np.ndarray],
    batch: Any,
    actions: np.ndarray,
    consts: Dict[str, Any],
    alloc: Optional[Allocator] = None,
    *,
    kind: str,
    grads: Sequence[np.ndarray],
    fu: Optional[FusionLib] = None,
    tracer: Any = None,
) -> Dict[str, float]:
    """One A2C (``kind="a2c"``) or PPO (``"ppo"``) step's forward + backward.

    ``weights`` are the agent's parameter arrays in ``parameters()`` order;
    every gradient is written in full into the matching array of ``grads``.
    ``consts`` holds ``returns``, ``value_coef``, ``entropy_coef`` and, for
    A2C, ``normalize_advantage``; for PPO, ``old_log_probs``, (normalised)
    ``advantages`` and ``clip_epsilon``.  ``alloc(name, shape, dtype)``
    supplies the working arrays (fresh ones when ``None``); ``fu`` is the C
    fusion core or ``None`` for the NumPy kernels.  ``batch`` (an
    :class:`~repro.sim.state.ObservationBatch`) must hold at least two
    observations and at least one pass head.

    Every kernel mirrors the exact expression (and, for shared-operand
    accumulations, the exact tape execution order) the autograd tape
    performs, minus dead branches — gradients of constants the tape computes
    and then discards (input features, return targets, the mean-pool
    divisor, softmax shifts) are simply not computed.  Returns the loss and
    the per-term stats.
    """
    alloc = alloc or _fresh
    traced = tracer is not None and tracer.enabled
    handle = tracer.begin("update/forward") if traced else None

    n = len(batch)
    n_f = float(n)
    base = len(weights) - 6
    num_layers = base // 2
    i_wt, i_bt, i_wp, i_bp, i_wv, i_bv = range(base, base + 6)

    # ---- forward: the tape-free forward, into the step's buffers ---- #
    fwd = batch_forward(weights, batch, fu, alloc=alloc)
    feats = batch.feats
    gids = batch.graph_ids
    m, hidden = fwd.layers[-1].shape
    values = fwd.values
    mp, ready_h, ctx, logits = fwd.mean_pool, fwd.ready_h, fwd.ctx, fwd.logits
    pmask, pcounts = fwd.tie_mask, fwd.tie_counts
    r = batch.ready_rows.size
    p_count = batch.pass_idx.size
    s_total = int(batch.action_offsets[-1])
    proc_dim = batch.proc_stack.shape[1]

    # ---- segment log-softmax over the per-graph action segments ---- #
    segs = batch.action_segments
    act_starts = batch.action_offsets[:-1]
    shift = alloc("shift", (n,))
    np.maximum.reduceat(logits, act_starts, out=shift)
    sg = alloc("sg", (s_total,))
    np.take(shift, segs, out=sg)
    z = alloc("z", (s_total,))
    np.subtract(logits, sg, out=z)
    np.exp(z, out=z)
    zs = alloc("zs", (n,))
    np.add.reduceat(z, act_starts, out=zs)
    lse = alloc("lse", (n,))
    np.log(zs, out=lse)
    np.add(lse, shift, out=lse)
    logp = alloc("logp", (s_total,))
    np.take(lse, segs, out=sg)
    np.subtract(logits, sg, out=logp)
    action_rows = act_starts + actions
    logp_a = alloc("logp_a", (n,))
    np.take(logp, action_rows, out=logp_a)

    # ---- loss terms ---- #
    returns = np.asarray(consts["returns"], dtype=np.float64)
    vc = consts["value_coef"]
    ec = consts["entropy_coef"]
    pl = alloc("pl", (n,))
    if kind == "a2c":
        advantages = returns - values
        if consts["normalize_advantage"]:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8
            )
        neg_adv = -advantages
        np.multiply(logp_a, neg_adv, out=pl)
    else:  # ppo
        old = np.asarray(consts["old_log_probs"], dtype=np.float64)
        advantages = np.asarray(consts["advantages"], dtype=np.float64)
        eps = consts["clip_epsilon"]
        tdiff = alloc("tdiff", (n,))
        np.subtract(logp_a, old, out=tdiff)
        ratio = alloc("ratio", (n,))
        np.exp(tdiff, out=ratio)
        lo, hi = 1.0 - eps, 1.0 + eps
        clipped = ((advantages >= 0.0) & (ratio > hi)) | (
            (advantages < 0.0) & (ratio < lo)
        )
        neg_adv = np.where(clipped, 0.0, -advantages)
        np.multiply(ratio, neg_adv, out=pl)
    policy_loss = np.sum(pl) / n_f
    diff = alloc("diff", (n,))
    np.subtract(values, returns, out=diff)
    sq = alloc("sq", (n,))
    np.multiply(diff, diff, out=sq)
    value_loss = np.sum(sq) / n_f
    pe = alloc("pe", (s_total,))
    np.exp(logp, out=pe)
    em = alloc("em", (s_total,))
    np.multiply(pe, logp, out=em)
    entropy = (-np.sum(em)) / n_f
    loss = (policy_loss + value_loss * vc) - entropy * ec

    if traced:
        tracer.end(handle)
        handle = tracer.begin("update/backward")

    # ---- backward: the tape's execution order, dead branches elided ---- #
    # scalar seeds, chained exactly as the tape's closures compute them
    g_ent_sum = -((-1.0 * ec) / n_f)  # loss → ·ec → /n → neg → ent-sum
    g_sq_sum = (1.0 * vc) / n_f  # loss → ·vc → /n → sq-sum
    g_pl_sum = 1.0 / n_f  # loss → /n → policy-sum

    # entropy → logp: contribution (1) through the p·logp product, then
    # (2) through exp, in the tape's accumulation order
    glogp = alloc("glogp", (s_total,))
    np.multiply(pe, g_ent_sum, out=glogp)
    np.multiply(logp, g_ent_sum, out=em)  # em is dead; reuse as scratch
    np.multiply(em, pe, out=em)
    np.add(glogp, em, out=glogp)

    # value head (the tape runs this branch before the policy chain)
    gdiff = alloc("gdiff", (n,))
    np.multiply(diff, g_sq_sum, out=gdiff)
    np.add(gdiff, gdiff, out=gdiff)  # diff feeds both mul operands
    gvb = gdiff.reshape(n, 1)
    np.matmul(mp.T, gvb, out=grads[i_wv])
    np.sum(gvb, axis=0, out=grads[i_bv])
    gmp = alloc("gmp", (n, hidden))
    np.matmul(gvb, weights[i_wv].T, out=gmp)
    np.divide(gmp, fwd.counts, out=gmp)
    gh = alloc("gh", (m, hidden))
    if fu is None:
        np.take(gmp, gids, axis=0, out=gh)  # h contribution (1): mean pool

    # policy seed → logp contribution (3): a zeros-scatter added in full,
    # mirroring the tape's whole-array `+=`
    gseed = alloc("gseed", (n,))
    np.multiply(neg_adv, g_pl_sum, out=gseed)
    if kind == "ppo":
        np.multiply(gseed, ratio, out=gseed)  # through exp(logp - old)
    scat_a = alloc("scat_a", (s_total,))
    scat_a.fill(0.0)
    scat_a[action_rows] = gseed
    np.add(glogp, scat_a, out=glogp)

    # log-softmax backward (reduceat mirror of the lse chain)
    gneg = alloc("gneg", (s_total,))
    np.negative(glogp, out=gneg)
    glse = alloc("glse", (n,))
    glse.fill(0.0)
    np.add.at(glse, segs, gneg)  # lse[ids] gathers with duplicates
    np.divide(glse, zs, out=glse)
    gz = alloc("gz", (s_total,))
    np.take(glse, segs, out=gz)
    np.multiply(gz, z, out=gz)
    glogits = alloc("glogits", (s_total,))
    np.add(glogp, gz, out=glogits)

    # undo the batch-order permutation; split into task/pass halves
    gcomb = alloc("gcomb", (s_total,))
    gcomb[batch.perm] = glogits
    gtask = gcomb[:r].reshape(r, 1)
    gpass = gcomb[r:].reshape(p_count, 1)

    # pass head backward → h contribution (2) through the max pool
    np.sum(gpass, axis=0, out=grads[i_bp])
    gctx = alloc("gctx", (p_count, hidden + proc_dim))
    np.matmul(gpass, weights[i_wp].T, out=gctx)
    np.matmul(ctx.T, gpass, out=grads[i_wp])
    gpooled = alloc("gpooled", (n, hidden))
    gpooled.fill(0.0)
    gpooled[batch.pass_idx] = gctx[:, :hidden]
    if fu is None:
        gather_a = alloc("gather_a", (m, hidden))  # forward scratch, free
        gather_b = alloc("gather_b", (m, hidden))
        np.take(gpooled, gids, axis=0, out=gather_a)
        np.take(pcounts, gids, axis=0, out=gather_b)
        np.divide(gather_a, gather_b, out=gather_a)
        notm = alloc("notm", (m, hidden), np.bool_)
        np.logical_not(pmask, out=notm)
        np.copyto(gather_a, 0.0, where=notm)
        np.add(gh, gather_a, out=gh)

    # task head backward → h contribution (3), a zeros-scatter in full
    np.sum(gtask, axis=0, out=grads[i_bt])
    gready = alloc("gready", (r, hidden))
    np.matmul(gtask, weights[i_wt].T, out=gready)
    np.matmul(ready_h.T, gtask, out=grads[i_wt])
    if fu is None:
        scat_h = alloc("scat_h", (m, hidden))
        scat_h.fill(0.0)
        scat_h[batch.ready_rows] = gready
        np.add(gh, scat_h, out=gh)
    else:
        # one pass over gh: gather(gmp) + masked gather(gpooled/pcounts)
        # + ready-row scatter, in the tape's left-to-right accumulation
        # order (divide-before-gather is per-element IEEE-identical)
        np.divide(gpooled, pcounts, out=gpooled)
        ready_inv = alloc("ready_inv", (m,), np.int64)
        ready_inv.fill(-1)
        ready_inv[batch.ready_rows] = np.arange(r)
        fu.gh_accum(gids, ready_inv, gmp, gpooled, pmask, gready, gh)

    # GCN stack backward, deepest layer first; the input-feature gradient
    # the tape computes and discards is simply never formed
    adj_t = transpose_csr(batch.norm_adj)
    ga = alloc("ga", (m, hidden))
    ghw = alloc("ghw", (m, hidden))
    gcur = gh
    for i in range(num_layers - 1, -1, -1):
        if fu is not None:
            fu.relu_bwd(gcur, fwd.masks[i], ga, grads[2 * i + 1])
            fu.spmm(adj_t.indptr, adj_t.indices, adj_t.data, ga, ghw)
        else:
            np.multiply(gcur, fwd.masks[i], out=ga)  # relu backward
            np.sum(ga, axis=0, out=grads[2 * i + 1])
            csr_matmul_out(adj_t.indptr, adj_t.indices, adj_t.data, ga, ghw)
        h_in = feats if i == 0 else fwd.layers[i - 1]
        np.matmul(h_in.T, ghw, out=grads[2 * i])
        if i > 0:
            np.matmul(ghw, weights[2 * i].T, out=gh)
            gcur = gh

    if traced:
        tracer.end(handle)

    out = {
        "loss": float(loss),
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy),
    }
    if kind == "ppo":
        out["clip_fraction"] = float(np.count_nonzero(clipped)) / n_f
        out["approx_kl"] = float(np.mean(old - logp_a))
    return out
