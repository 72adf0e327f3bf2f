"""Compiled training step: capture/replay of the full A2C/PPO update.

:class:`TrainingCompiler` captures one reference update per plan key on the
autograd tape, validates a hand-fused straight-line NumPy mirror of it
**bitwise** against the tape (loss, per-term stats, every parameter
gradient), then replays later updates of that key through the fused kernels
— no ``Tensor`` objects, no backward closures, no version counters.

The capture hook (:data:`repro.nn.tensor._CAPTURE`) is what lets capture
refuse structurally: every hooked op reports itself, ``Tensor._make`` counts
every tensor produced, and a mismatch (an unhooked op) or a ``detach``
taints the capture so the key permanently falls back to the tape.

The replay's forward half is :func:`repro.nn.array_forward.batch_forward`,
the same tape-free function every rollout, evaluation and served decision
runs; the replay hands it the plan's buffers and reads back the
intermediates its backward needs.  There is deliberately no inference
compiler (DESIGN.md §10 explains why).

The engine is single-threaded by design — one engine per updater.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro.nn import tensor as tensor_mod
from repro.nn.array_forward import batch_forward, csr_matmul_out, fusion_for
from repro.nn.tensor import Tensor

__all__ = ["TrainingCompiler", "TrainStats"]

#: functional ops whose capture taint only says "I baked a data-dependent
#: constant" — the fused kernels re-derive those constants per call (max
#: shifts, clip masks), so the taint is a note, not a structural refusal.
_DATA_CONSTANT_OPS = ("segment_log_softmax", "clipped_surrogate")

#: live plans kept per engine; the least recently used one is evicted
MAX_PLANS = 8


def _transpose_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Aᵀ as CSR, cached on the matrix — the same cache (and the same
    construction, so the same float summation order) the tape's spmm backward
    uses in :func:`repro.nn.sparse.sparse_matmul`."""
    transpose = getattr(csr, "_cached_transpose_csr", None)
    if transpose is None:
        transpose = csr.T.tocsr()
        csr._cached_transpose_csr = transpose
    return transpose


class TrainStats:
    """Counters describing a :class:`TrainingCompiler`'s behaviour."""

    __slots__ = (
        "plan_hits",
        "plan_misses",
        "plan_evictions",
        "fallbacks",
        "replays",
        "captures",
        "validation_failures",
    )

    def __init__(self) -> None:
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0
        self.fallbacks = 0
        self.replays = 0
        self.captures = 0
        self.validation_failures = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def hit_rate(self) -> float:
        """Fraction of update calls served by a fused replay."""
        total = self.plan_hits + self.plan_misses + self.fallbacks
        return self.plan_hits / total if total else 0.0


class _TrainCapture:
    """Forward-op recorder installed while the reference loss graph builds.

    It does not build a replay program from the trace — the hand-fused
    kernels are validated bitwise against the tape at capture time — so it
    only records the op sequence (kept on the plan for introspection),
    counts made tensors (to detect unhooked ops) and carries the taint
    channel.  Taints from ops in :data:`_DATA_CONSTANT_OPS` are demoted to
    notes; everything else (``detach``, scatter-path segment ops, unhooked
    tensors) is structural and refuses the capture.
    """

    __slots__ = ("made", "ops", "notes", "taint_reason")

    def __init__(self) -> None:
        self.made = 0
        self.ops: List[str] = []
        self.notes: List[str] = []
        self.taint_reason: Optional[str] = None

    def record(
        self,
        out: Tensor,
        op: str,
        operands: Sequence[Tensor],
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.ops.append(op)

    def taint(self, reason: str) -> None:
        if reason.split(" bakes ")[0] in _DATA_CONSTANT_OPS:
            self.notes.append(reason)
            return
        if self.taint_reason is None:
            self.taint_reason = reason


class _TrainPlan:
    """A validated fused training program plus its working buffers."""

    __slots__ = ("key", "kind", "buffers", "forward_ops", "backward_ops", "notes")

    def __init__(self, key: Any, kind: str) -> None:
        self.key = key
        self.kind = kind
        self.buffers: Dict[str, np.ndarray] = {}
        self.forward_ops: List[str] = []
        self.backward_ops: List[str] = []
        self.notes: List[str] = []


class TrainingCompiler:
    """Capture/replay engine for the full A2C/PPO training step.

    On the first update for a plan key — ``(loss kind, batch size, feature
    width, advantage normalisation, stack depth)`` — the engine runs the
    *reference* loss construction on the autograd tape under a forward-op
    recorder and a backward trace (:func:`repro.nn.tensor.trace_backward`),
    then executes its hand-fused NumPy mirror of that program (forward,
    backward into a preallocated flat gradient arena, dead-branch gradients
    elided) on the same inputs and the same live weights, and compares the
    loss, the per-term stats and **every parameter gradient bitwise**.  Only
    a bit-identical plan is kept; any mismatch marks the key permanently
    uncompilable and every later call transparently runs the reference tape.

    Replays never build tensors: one pass of raw ufunc/BLAS/``reduceat``
    kernels writes gradients straight into per-parameter views of one flat
    vector, then ``clip_flat_grads`` + :meth:`Adam.step_flat` finish the
    update with a single norm reduction and a single fused moment update.
    The clipped flat vector the reference path concatenates inside
    :func:`clip_grad_norm` is the same parameter-order concatenation, so the
    weight trajectories stay bitwise identical.

    Guarantees:

    * **live parameters** — fused kernels read ``p.data`` at call time, so
      checkpoint restores and optimizer writes need no invalidation;
    * **structural refusal** — grad-disabled/anomaly mode, a capture or a
      backward trace already running, batches of one (they route through the
      single-observation forward) and batches without a pass head all fall
      back to the reference implementation;
    * **plan-owned buffers** — each plan keeps one working buffer per name
      and replaces it only when its shape changes, so the memory held is
      exactly that of the live plans (bounded by the plan LRU).

    After a fused step each ``p.grad`` is rebound to its (clipped) arena
    view — **borrowed** memory, overwritten by the next replay.
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
        self.agent = agent
        self.optimizer = optimizer
        self.stats = TrainStats()
        self.tracer: Any = None  # duck-typed obs tracer, set by the updater
        self._plans: "OrderedDict[Any, _TrainPlan]" = OrderedDict()
        self._uncompilable: Dict[Any, str] = {}

        # the fused program mirrors the agent's fixed module layout; bind the
        # layers once and validate that the optimizer flattens parameters in
        # exactly that order, so gradient-arena offsets line up with the Adam
        # slot offsets
        self._convs = list(agent.gcn.convs)
        self._task = agent.task_score
        self._pass = agent.pass_score
        self._value = agent.value_head
        expected: List[Any] = []
        for conv in self._convs:
            expected.extend([conv.weight, conv.bias])
        for head in (self._task, self._pass, self._value):
            expected.extend([head.weight, head.bias])
        if [id(p) for p in optimizer.params] != [id(p) for p in expected]:
            raise ValueError(
                "optimizer parameter order does not match the agent's "
                "gcn/task/pass/value layout; compiled training requires the "
                "canonical Adam(agent.parameters()) construction"
            )
        offsets = optimizer._offsets
        self._flat_grad = np.zeros(offsets[-1])
        self._grad_views = [
            self._flat_grad[a:b].reshape(p.data.shape)
            for p, a, b in zip(optimizer.params, offsets[:-1], offsets[1:])
        ]
        base = 2 * len(self._convs)
        self._iWt, self._ibt = base, base + 1
        self._iWp, self._ibp = base + 2, base + 3
        self._iWv, self._ibv = base + 4, base + 5

        # the C fusion core streams the memory-bound segment/elementwise
        # passes in single traversals; None (no compiler, REPRO_NO_FUSION,
        # hidden wider than its stack accumulators) keeps the pure-NumPy
        # kernels.  Either backend faces the same capture-time validation.
        hidden = self._convs[0].weight.data.shape[1] if self._convs else 0
        self._fusion = fusion_for(hidden)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def update(
        self,
        kind: str,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
        reference: Callable[[], Tuple[Tensor, Dict[str, float]]],
    ) -> Optional[Dict[str, float]]:
        """Run one full training step (gradients + clip + Adam) if possible.

        ``kind`` is ``"a2c"`` or ``"ppo"``; ``glue`` is the prebuilt batch
        glue (:class:`repro.rl.agent._BatchGlue`-shaped); ``consts`` carries
        the per-call numeric inputs (returns/advantages/coefficients and
        ``max_grad_norm``).  ``reference`` builds the reference loss graph on
        the tape and returns ``(loss, stats_dict)`` — it is only invoked at
        capture time.

        Returns the update's stats dict (including ``grad_norm``) when the
        engine performed the step — fused replay, or reference execution
        during a capture — and ``None`` when the caller must run the
        reference update itself (structural refusal or uncompilable key).
        """
        if kind not in ("a2c", "ppo"):
            raise ValueError(f"unknown training-step kind {kind!r}")
        if (
            not tensor_mod.is_grad_enabled()
            or tensor_mod._ANOMALY_ENABLED
            or tensor_mod._CAPTURE is not None
            or tensor_mod._BACKWARD_TRACE is not None
            or glue.batch < 2
            or glue.pass_idx.size == 0
        ):
            self.stats.fallbacks += 1
            return None
        key = (
            kind,
            glue.batch,
            glue.feats.shape[1],
            bool(consts.get("normalize_advantage", False)),
            len(self._convs),
        )
        if key in self._uncompilable:
            self.stats.fallbacks += 1
            return None
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.stats.plan_hits += 1
            stats = self._run_fused(plan, glue, actions, consts)
            self.stats.replays += 1
            return self._apply_flat_step(stats, consts["max_grad_norm"])
        self.stats.plan_misses += 1
        return self._capture(key, kind, glue, actions, consts, reference)

    def plan_descriptions(self) -> Dict[Any, Dict[str, Any]]:
        """Recorded op sequences per live plan (introspection/tests)."""
        return {
            key: {
                "forward_ops": list(plan.forward_ops),
                "backward_ops": list(plan.backward_ops),
                "notes": list(plan.notes),
            }
            for key, plan in self._plans.items()
        }

    def uncompilable_reasons(self) -> Dict[Any, str]:
        """Keys that permanently fall back, with the refusal reason."""
        return dict(self._uncompilable)

    def stats_dict(self) -> Dict[str, float]:
        """Counters plus buffer gauges, as a flat dict (for logs/benchmarks).

        ``arena_bytes`` is the bytes held by the live plans' working buffers.
        """
        out: Dict[str, float] = dict(self.stats.as_dict())
        out["plans"] = len(self._plans)
        out["uncompilable"] = len(self._uncompilable)
        out["arena_bytes"] = sum(
            buffer.nbytes
            for plan in self._plans.values()
            for buffer in plan.buffers.values()
        )
        out["hit_rate"] = self.stats.hit_rate
        return out

    def publish_metrics(self, registry, prefix: str = "train_compile") -> None:
        """Export the counters into a :class:`repro.obs` metrics registry."""
        if not registry.enabled:
            return
        for name, value in self.stats_dict().items():
            registry.gauge(f"{prefix}/{name}").set(float(value))

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _capture(
        self,
        key: Any,
        kind: str,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
        reference: Callable[[], Tuple[Tensor, Dict[str, float]]],
    ) -> Dict[str, float]:
        cap = _TrainCapture()
        tensor_mod._CAPTURE = cap
        try:
            loss, aux = reference()
        finally:
            tensor_mod._CAPTURE = None
        if cap.taint_reason is None and cap.made != len(cap.ops):
            cap.taint(
                f"{cap.made - len(cap.ops)} tensor(s) created by ops "
                "without capture hooks"
            )
        self.optimizer.zero_grad()
        with tensor_mod.trace_backward() as btrace:
            loss.backward()
        max_norm = consts["max_grad_norm"]
        if cap.taint_reason is not None:
            self._refuse(key, cap.taint_reason)
            return self._finish_reference(aux, max_norm)
        plan = _TrainPlan(key, kind)
        plan.forward_ops = list(cap.ops)
        plan.backward_ops = [op for op, _shape in btrace]
        plan.notes = list(cap.notes)
        try:
            fused = self._run_fused(plan, glue, actions, consts)
        except Exception as exc:  # refuse rather than ever corrupt training
            self._refuse(key, f"fused kernel failed: {exc!r}")
            return self._finish_reference(aux, max_norm)
        mismatch = self._validate(loss, aux, fused)
        if mismatch is not None:
            self.stats.validation_failures += 1
            self._refuse(key, f"capture validation failed: {mismatch}")
            return self._finish_reference(aux, max_norm)
        self._plans[key] = plan
        self.stats.captures += 1
        if len(self._plans) > MAX_PLANS:
            self._plans.popitem(last=False)
            self.stats.plan_evictions += 1
        # finish through the reference arrays: the arena holds bitwise-equal
        # gradients and clip+Adam both run the flat path, so the step is
        # identical either way — but the tape's own grads are already bound
        return self._finish_reference(aux, max_norm)

    def _validate(
        self, loss: Tensor, aux: Dict[str, float], fused: Dict[str, float]
    ) -> Optional[str]:
        ref_loss = float(loss.data)
        if not self._floats_equal(ref_loss, fused["loss"]):
            return f"loss {ref_loss!r} != fused {fused['loss']!r}"
        for name, value in aux.items():
            got = fused.get(name)
            if got is not None and not self._floats_equal(float(value), got):
                return f"{name} {value!r} != fused {got!r}"
        for i, (p, view) in enumerate(zip(self.optimizer.params, self._grad_views)):
            if p.grad is None:
                return f"parameter {i} received no gradient from the tape"
            if not np.array_equal(np.asarray(p.grad), view):
                return f"gradient mismatch on parameter {i}"
        return None

    @staticmethod
    def _floats_equal(a: float, b: float) -> bool:
        return a == b or (np.isnan(a) and np.isnan(b))

    def _finish_reference(self, aux: Dict[str, float], max_norm: float) -> Dict[str, float]:
        from repro.nn.optim import clip_grad_norm

        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/optimizer") if traced else None
        grad_norm = clip_grad_norm(self.optimizer.params, max_norm)
        self.optimizer.step()
        if traced:
            tracer.end(handle)
        out = {name: float(value) for name, value in aux.items()}
        out["grad_norm"] = grad_norm
        return out

    def _apply_flat_step(
        self, stats: Dict[str, float], max_norm: float
    ) -> Dict[str, float]:
        from repro.nn.optim import clip_flat_grads

        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/optimizer") if traced else None
        grad_norm = clip_flat_grads(self._flat_grad, max_norm)
        self.optimizer.step_flat(self._flat_grad)
        # borrowed gradients: diagnostics can read them until the next replay
        for p, view in zip(self.optimizer.params, self._grad_views):
            p.grad = view
            p._grad_owned = False
        if traced:
            tracer.end(handle)
        stats["grad_norm"] = grad_norm
        return stats

    def _refuse(self, key: Any, reason: str) -> None:
        self._uncompilable[key] = reason
        self.stats.fallbacks += 1

    def _buf(
        self, plan: _TrainPlan, name: str, shape: Tuple[int, ...], dtype: Any = np.float64
    ) -> np.ndarray:
        """Plan-owned working buffer, replaced only when its shape changes."""
        buffer = plan.buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            plan.buffers[name] = buffer
        return buffer

    # ------------------------------------------------------------------ #
    # the fused program
    # ------------------------------------------------------------------ #

    def _run_fused(
        self,
        plan: _TrainPlan,
        glue: Any,
        actions: np.ndarray,
        consts: Dict[str, Any],
    ) -> Dict[str, float]:
        """Forward + backward as straight-line NumPy, gradients into the arena.

        Every kernel mirrors the exact expression (and, for shared-operand
        accumulations, the exact tape execution order) the reference autograd
        run performs, minus dead branches — gradients of constants the tape
        computes and then discards (input features, return targets, the
        mean-pool divisor, softmax shifts) are simply not computed.  Bitwise
        equality with the tape is asserted at capture before any replay runs.
        """
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        handle = tracer.begin("update/forward") if traced else None

        fu = self._fusion
        n = glue.batch
        n_f = float(n)

        # ---- forward: the tape-free forward, into plan-owned buffers ---- #
        fwd = batch_forward(
            [p.data for p in self.optimizer.params], glue, fu,
            alloc=lambda name, shape, dtype=np.float64: self._buf(plan, name, shape, dtype),
        )
        feats = glue.feats
        gids = glue.graph_ids
        m, hidden = fwd.layers[-1].shape
        num_layers = len(self._convs)
        values = fwd.values
        mp, ready_h, ctx, logits = fwd.mean_pool, fwd.ready_h, fwd.ctx, fwd.logits
        pmask, pcounts = fwd.tie_mask, fwd.tie_counts
        r = glue.ready_rows.size
        p_count = glue.pass_idx.size
        s_total = int(glue.action_offsets[-1])
        proc_dim = glue.proc_stack.shape[1]

        # ---- segment log-softmax over the per-graph action segments ---- #
        segs = np.repeat(np.arange(n), glue.num_actions)
        act_starts = glue.action_offsets[:-1]
        shift = self._buf(plan, "shift", (n,))
        np.maximum.reduceat(logits, act_starts, out=shift)
        sg = self._buf(plan, "sg", (s_total,))
        np.take(shift, segs, out=sg)
        z = self._buf(plan, "z", (s_total,))
        np.subtract(logits, sg, out=z)
        np.exp(z, out=z)
        zs = self._buf(plan, "zs", (n,))
        np.add.reduceat(z, act_starts, out=zs)
        lse = self._buf(plan, "lse", (n,))
        np.log(zs, out=lse)
        np.add(lse, shift, out=lse)
        logp = self._buf(plan, "logp", (s_total,))
        np.take(lse, segs, out=sg)
        np.subtract(logits, sg, out=logp)
        action_rows = act_starts + actions
        logp_a = self._buf(plan, "logp_a", (n,))
        np.take(logp, action_rows, out=logp_a)

        # ---- loss terms ---- #
        returns = np.asarray(consts["returns"], dtype=np.float64)
        vc = consts["value_coef"]
        ec = consts["entropy_coef"]
        pl = self._buf(plan, "pl", (n,))
        if plan.kind == "a2c":
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
            tdiff = self._buf(plan, "tdiff", (n,))
            np.subtract(logp_a, old, out=tdiff)
            ratio = self._buf(plan, "ratio", (n,))
            np.exp(tdiff, out=ratio)
            lo, hi = 1.0 - eps, 1.0 + eps
            clipped = ((advantages >= 0.0) & (ratio > hi)) | (
                (advantages < 0.0) & (ratio < lo)
            )
            neg_adv = np.where(clipped, 0.0, -advantages)
            np.multiply(ratio, neg_adv, out=pl)
        policy_loss = np.sum(pl) / n_f
        diff = self._buf(plan, "diff", (n,))
        np.subtract(values, returns, out=diff)
        sq = self._buf(plan, "sq", (n,))
        np.multiply(diff, diff, out=sq)
        value_loss = np.sum(sq) / n_f
        pe = self._buf(plan, "pe", (s_total,))
        np.exp(logp, out=pe)
        em = self._buf(plan, "em", (s_total,))
        np.multiply(pe, logp, out=em)
        entropy = (-np.sum(em)) / n_f
        loss = (policy_loss + value_loss * vc) - entropy * ec

        if traced:
            tracer.end(handle)
            handle = tracer.begin("update/backward")

        # ---- backward: the tape's execution order, dead branches elided ---- #
        views = self._grad_views
        # scalar seeds, chained exactly as the tape's closures compute them
        g_ent_sum = -((-1.0 * ec) / n_f)  # loss → ·ec → /n → neg → ent-sum
        g_sq_sum = (1.0 * vc) / n_f  # loss → ·vc → /n → sq-sum
        g_pl_sum = 1.0 / n_f  # loss → /n → policy-sum

        # entropy → logp: contribution (1) through the p·logp product, then
        # (2) through exp, in the tape's accumulation order
        glogp = self._buf(plan, "glogp", (s_total,))
        np.multiply(pe, g_ent_sum, out=glogp)
        np.multiply(logp, g_ent_sum, out=em)  # em is dead; reuse as scratch
        np.multiply(em, pe, out=em)
        np.add(glogp, em, out=glogp)

        # value head (the tape runs this branch before the policy chain)
        gdiff = self._buf(plan, "gdiff", (n,))
        np.multiply(diff, g_sq_sum, out=gdiff)
        np.add(gdiff, gdiff, out=gdiff)  # diff feeds both mul operands
        gvb = gdiff.reshape(n, 1)
        np.matmul(mp.T, gvb, out=views[self._iWv])
        np.sum(gvb, axis=0, out=views[self._ibv])
        gmp = self._buf(plan, "gmp", (n, hidden))
        np.matmul(gvb, self._value.weight.data.T, out=gmp)
        np.divide(gmp, fwd.counts, out=gmp)
        gh = self._buf(plan, "gh", (m, hidden))
        if fu is None:
            np.take(gmp, gids, axis=0, out=gh)  # h contribution (1): mean pool

        # policy seed → logp contribution (3): a zeros-scatter added in full,
        # mirroring the tape's whole-array `+=`
        gseed = self._buf(plan, "gseed", (n,))
        np.multiply(neg_adv, g_pl_sum, out=gseed)
        if plan.kind == "ppo":
            np.multiply(gseed, ratio, out=gseed)  # through exp(logp - old)
        scat_a = self._buf(plan, "scat_a", (s_total,))
        scat_a.fill(0.0)
        scat_a[action_rows] = gseed
        np.add(glogp, scat_a, out=glogp)

        # log-softmax backward (reduceat mirror of the lse chain)
        gneg = self._buf(plan, "gneg", (s_total,))
        np.negative(glogp, out=gneg)
        glse = self._buf(plan, "glse", (n,))
        glse.fill(0.0)
        np.add.at(glse, segs, gneg)  # lse[ids] gathers with duplicates
        np.divide(glse, zs, out=glse)
        gz = self._buf(plan, "gz", (s_total,))
        np.take(glse, segs, out=gz)
        np.multiply(gz, z, out=gz)
        glogits = self._buf(plan, "glogits", (s_total,))
        np.add(glogp, gz, out=glogits)

        # undo the batch-order permutation; split into task/pass halves
        gcomb = self._buf(plan, "gcomb", (s_total,))
        gcomb[glue.perm] = glogits
        gtask = gcomb[:r].reshape(r, 1)
        gpass = gcomb[r:].reshape(p_count, 1)

        # pass head backward → h contribution (2) through the max pool
        np.sum(gpass, axis=0, out=views[self._ibp])
        gctx = self._buf(plan, "gctx", (p_count, hidden + proc_dim))
        np.matmul(gpass, self._pass.weight.data.T, out=gctx)
        np.matmul(ctx.T, gpass, out=views[self._iWp])
        gpooled = self._buf(plan, "gpooled", (n, hidden))
        gpooled.fill(0.0)
        gpooled[glue.pass_idx] = gctx[:, :hidden]
        if fu is None:
            gather_a = plan.buffers["gather_a"]  # forward scratch, free
            gather_b = plan.buffers["gather_b"]
            np.take(gpooled, gids, axis=0, out=gather_a)
            np.take(pcounts, gids, axis=0, out=gather_b)
            np.divide(gather_a, gather_b, out=gather_a)
            notm = self._buf(plan, "notm", (m, hidden), np.bool_)
            np.logical_not(pmask, out=notm)
            np.copyto(gather_a, 0.0, where=notm)
            np.add(gh, gather_a, out=gh)

        # task head backward → h contribution (3), a zeros-scatter in full
        np.sum(gtask, axis=0, out=views[self._ibt])
        gready = self._buf(plan, "gready", (r, hidden))
        np.matmul(gtask, self._task.weight.data.T, out=gready)
        np.matmul(ready_h.T, gtask, out=views[self._iWt])
        if fu is None:
            scat_h = self._buf(plan, "scat_h", (m, hidden))
            scat_h.fill(0.0)
            scat_h[glue.ready_rows] = gready
            np.add(gh, scat_h, out=gh)
        else:
            # one pass over gh: gather(gmp) + masked gather(gpooled/pcounts)
            # + ready-row scatter, in the tape's left-to-right accumulation
            # order (divide-before-gather is per-element IEEE-identical)
            np.divide(gpooled, pcounts, out=gpooled)
            ready_inv = self._buf(plan, "ready_inv", (m,), np.int64)
            ready_inv.fill(-1)
            ready_inv[glue.ready_rows] = np.arange(r)
            fu.gh_accum(gids, ready_inv, gmp, gpooled, pmask, gready, gh)

        # GCN stack backward, deepest layer first; the input-feature gradient
        # the tape computes and discards is simply never formed
        adj_t = _transpose_csr(glue.adj)
        ga = self._buf(plan, "ga", (m, hidden))
        ghw = self._buf(plan, "ghw", (m, hidden))
        gcur = gh
        for i in range(num_layers - 1, -1, -1):
            if fu is not None:
                fu.relu_bwd(gcur, fwd.masks[i], ga, views[2 * i + 1])
                fu.spmm(adj_t.indptr, adj_t.indices, adj_t.data, ga, ghw)
            else:
                np.multiply(gcur, fwd.masks[i], out=ga)  # relu backward
                np.sum(ga, axis=0, out=views[2 * i + 1])
                csr_matmul_out(adj_t.indptr, adj_t.indices, adj_t.data, ga, ghw)
            h_in = feats if i == 0 else fwd.layers[i - 1]
            np.matmul(h_in.T, ghw, out=views[2 * i])
            if i > 0:
                np.matmul(ghw, self._convs[i].weight.data.T, out=gh)
                gcur = gh

        if traced:
            tracer.end(handle)

        out = {
            "loss": float(loss),
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy),
        }
        if plan.kind == "ppo":
            out["clip_fraction"] = float(np.count_nonzero(clipped)) / n_f
            out["approx_kl"] = float(np.mean(old - logp_a))
        return out
