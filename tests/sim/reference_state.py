"""Frozen reference implementation of observation building and batching.

A test-only copy of the per-member state build that preceded the batched
builder: window nodes from a dense depth-``w`` reachability mask (BFS for
large graphs), a per-window edge gather with the sparse GCN normalisation,
the job columns concatenated after the base build, and the batch of a
list of observations.  It keeps no memo between calls, so every
observation it returns is computed from the simulation alone.
:func:`assert_matches_reference` checks a batch against it bit for bit
(used by ``test_state_batch.py`` and ``test_vec_parity.py``); nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse as sp

from repro.graphs.features import descendant_type_fractions, node_features
from repro.nn.sparse import edges_to_sparse_adjacency, gcn_normalize_adjacency_sparse
from repro.platforms.resources import NUM_RESOURCE_TYPES
from repro.sim.state import (
    NUM_DYNAMIC_FEATURES,
    PROC_FEATURE_DIM,
    Observation,
    ObservationBatch,
)
from repro.sim.streaming import JobStateBuilder

REACH_MAX_NODES = 2048


class ReferenceStateBuilder:
    """Per-member observation build (``job_columns`` adds the streaming pair)."""

    def __init__(self, durations, window: int, job_columns: bool = False) -> None:
        self.durations = durations
        self.window = window
        self.job_columns = job_columns
        self.scale = float(durations.table.mean())

    def reach_mask(self, graph) -> Optional[np.ndarray]:
        if graph.num_tasks > REACH_MAX_NODES:
            return None
        adj = graph.adjacency_matrix()
        reach = np.zeros((graph.num_tasks, graph.num_tasks), dtype=bool)
        frontier = adj
        for _ in range(self.window):
            reach |= frontier > 0.0
            frontier = frontier @ adj
        return reach

    def window_nodes(self, sim) -> np.ndarray:
        src_mask = sim.ready | sim.running
        sources = np.flatnonzero(src_mask)
        if sources.size == 0:
            raise RuntimeError("no ready or running task — episode is over")
        if self.window == 0:
            return sources
        reach = self.reach_mask(sim.graph)
        if reach is not None:
            mask = reach[sources].any(axis=0)
            mask &= ~sim.finished
            mask |= src_mask
            return np.flatnonzero(mask)
        desc = sim.graph.descendants_within(sources, self.window)
        desc = desc[~sim.finished[desc]]
        return np.union1d(sources, desc)

    def template(self, graph) -> tuple:
        raw = node_features(graph, fractions=descendant_type_fractions(graph))
        exp = self.durations.expected_vector(graph.task_types) / self.scale
        template = np.zeros(
            (graph.num_tasks, raw.shape[1] + NUM_DYNAMIC_FEATURES), dtype=np.float64
        )
        template[:, : raw.shape[1]] = raw
        template[:, raw.shape[1]: raw.shape[1] + NUM_RESOURCE_TYPES] = exp
        return template, raw.shape[1]

    def proc_descriptor(self, sim, current_proc, busy, remaining) -> np.ndarray:
        p = sim.platform.num_processors
        descriptor = np.zeros(PROC_FEATURE_DIM, dtype=np.float64)
        descriptor[sim.platform.type_of(current_proc)] = 1.0
        descriptor[NUM_RESOURCE_TYPES] = (p - busy.size) / p
        descriptor[NUM_RESOURCE_TYPES + 1] = min(
            1.0, int(sim.ready.sum()) / max(1, p)
        )
        if remaining is not None and len(remaining):
            descriptor[NUM_RESOURCE_TYPES + 2] = float(remaining.mean()) / self.scale
        return descriptor

    def build(self, sim, current_proc: int,
              allow_pass: Optional[bool] = None) -> Observation:
        graph = sim.graph
        nodes = self.window_nodes(sim)
        template, raw_width = self.template(graph)
        features = template[nodes]
        features[:, 2] = sim.ready[nodes]
        features[:, 3] = sim.running[nodes]
        col_remaining = raw_width + NUM_RESOURCE_TYPES
        col_exp_current = col_remaining + 1

        remap = np.full(graph.num_tasks, -1, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        busy = sim.busy_processors()
        remaining = None
        if busy.size:
            remaining = sim.expected_remaining_many(busy)
            pos = remap[sim.proc_task[busy]]
            inside = pos >= 0
            if inside.any():
                features[pos[inside], col_remaining] = remaining[inside] / self.scale
        cur_type = sim.platform.type_of(current_proc)
        features[:, col_exp_current] = features[:, raw_width + cur_type]
        features[:, col_exp_current + 1 + cur_type] = 1.0

        e = graph.edges
        if len(e):
            keep = (remap[e[:, 0]] >= 0) & (remap[e[:, 1]] >= 0)
            sub_edges = np.column_stack((remap[e[keep, 0]], remap[e[keep, 1]]))
        else:
            sub_edges = np.zeros((0, 2), dtype=np.int64)
        norm_adj = gcn_normalize_adjacency_sparse(
            edges_to_sparse_adjacency(sub_edges, nodes.size)
        )

        ready_positions = np.flatnonzero(sim.ready[nodes])
        if allow_pass is None:
            allow_pass = bool(sim.running.any())
        extra = 0
        if self.job_columns:
            meta = graph.__dict__["_streaming_jobs"]
            jobs = meta["job_of"][nodes]
            cols = np.empty((nodes.size, 2), dtype=np.float64)
            cols[:, 0] = (jobs + 1) / len(meta["arrivals"])
            cols[:, 1] = (sim.time - meta["arrivals"][jobs]) / meta["mean_ideal"]
            features = np.concatenate((features, cols), axis=1)
            extra = 2
        return Observation(
            features=features,
            norm_adj=norm_adj,
            ready_positions=ready_positions,
            ready_tasks=nodes[ready_positions],
            proc_features=self.proc_descriptor(sim, current_proc, busy, remaining),
            current_proc=int(current_proc),
            allow_pass=allow_pass,
            window_fingerprint=nodes.tobytes(),
            extra_node_features=extra,
        )


def reference_batch(obs_list) -> ObservationBatch:
    """The batch of the observations, every array computed here: the
    block-diagonal CSR by ``scipy.sparse.block_diag``, the action layout by
    its own index arithmetic (each is assigned over the batch's
    compute-once attribute, so none of the batch's code runs)."""
    batch = len(obs_list)
    sizes = [o.num_nodes for o in obs_list]
    adj = sp.block_diag([o.norm_adj for o in obs_list], format="csr")
    num_ready = np.array([len(o.ready_positions) for o in obs_list])
    node_offsets = np.concatenate(([0], np.cumsum(sizes)))
    ready_local = np.concatenate([np.asarray(o.ready_positions) for o in obs_list])
    ready_rows = ready_local + np.repeat(node_offsets[:-1], num_ready)
    pass_idx = np.array(
        [i for i, o in enumerate(obs_list) if o.allow_pass], dtype=np.int64
    )
    proc_stack = (
        np.stack([obs_list[i].proc_features for i in pass_idx])
        if pass_idx.size
        else None
    )
    num_actions = np.array([o.num_actions for o in obs_list])
    action_offsets = np.concatenate(([0], np.cumsum(num_actions)))
    task_offsets = np.concatenate(([0], np.cumsum(num_ready)))
    total_tasks = int(task_offsets[-1])
    perm = np.empty(int(action_offsets[-1]), dtype=np.int64)
    within = np.arange(total_tasks) - np.repeat(task_offsets[:-1], num_ready)
    perm[np.repeat(action_offsets[:-1], num_ready) + within] = np.arange(total_tasks)
    if pass_idx.size:
        perm[action_offsets[pass_idx] + num_ready[pass_idx]] = (
            total_tasks + np.arange(pass_idx.size)
        )
    want = ObservationBatch(
        feats=np.concatenate([o.features for o in obs_list], axis=0),
        node_offsets=node_offsets,
        graph_ids=np.repeat(np.arange(batch), sizes),
        tasks=None,
        adj_data=adj.data,
        adj_indices=adj.indices,
        adj_indptr=adj.indptr,
        ready_rows=ready_rows,
        num_ready=num_ready,
        current_procs=np.array([o.current_proc for o in obs_list], dtype=np.int64),
        allow_pass=np.array([o.allow_pass for o in obs_list], dtype=bool),
        proc_features=np.stack([o.proc_features for o in obs_list]),
        extra_node_features=np.array(
            [o.extra_node_features for o in obs_list], dtype=np.int64
        ),
        sources=obs_list,
    )
    want.norm_adj = adj
    want.ready_offsets = task_offsets
    want.ready_local = ready_local
    want.ready_tasks = np.concatenate([np.asarray(o.ready_tasks) for o in obs_list])
    want.pass_idx = pass_idx
    want.proc_stack = proc_stack
    want.num_actions = num_actions
    want.action_offsets = action_offsets
    want.action_segments = np.repeat(np.arange(batch), num_actions)
    want.perm = perm
    return want


# --------------------------------------------------------------------- #
# bitwise comparison against the reference
# --------------------------------------------------------------------- #

BATCH_ARRAYS = (
    "feats", "graph_ids", "node_offsets", "adj_data", "adj_indices", "adj_indptr",
    "num_ready", "ready_rows", "ready_offsets", "ready_local", "ready_tasks",
    "current_procs", "allow_pass", "proc_features", "extra_node_features",
    "pass_idx", "proc_stack", "num_actions", "action_offsets", "action_segments", "perm",
)


def same_array(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}"
    # bitwise: compare the raw bytes, so -0.0/0.0 and NaN payloads count
    assert a.tobytes() == b.tobytes(), f"{what} differs"


def same_adjacency(a, b, what):
    for part in ("data", "indices", "indptr"):
        same_array(getattr(a, part), getattr(b, part), f"{what}.{part}")
    assert a.shape == b.shape


def reference_of(env, ob):
    """The oracle's observation of ``env`` at the decision ``ob`` answers."""
    builder = env.state_builder
    oracle = ReferenceStateBuilder(
        builder.durations, builder.window,
        job_columns=isinstance(builder, JobStateBuilder),
    )
    return oracle.build(env.sim, ob.current_proc, allow_pass=ob.allow_pass)


def assert_matches_reference(envs, batch):
    """Every member of ``batch`` equals the oracle's observation, and the
    batch and :meth:`ObservationBatch.of` its members both equal the
    reference batch of the oracle's observations."""
    assert isinstance(batch, ObservationBatch)
    assert len(batch) == len(envs)
    refs = []
    for i, (env, ob) in enumerate(zip(envs, batch)):
        ref = reference_of(env, ob)
        refs.append(ref)
        for field in ("features", "ready_positions", "ready_tasks", "proc_features"):
            same_array(getattr(ob, field), getattr(ref, field), f"member {i} {field}")
        same_adjacency(ob.norm_adj, ref.norm_adj, f"member {i} norm_adj")
        assert ob.window_fingerprint == ref.window_fingerprint
        assert ob.extra_node_features == ref.extra_node_features
        assert ob.num_nodes == ref.num_nodes
        assert ob.num_actions == ref.num_actions
    want = reference_batch(refs)
    for got in (batch, ObservationBatch.of(list(batch))):
        assert_same_batch(got, want)
    return refs


def assert_same_batch(got, want):
    """``got`` holds ``want``'s arrays, action layout and matrix, bitwise."""
    assert len(got) == len(want)
    assert got.sizes == want.sizes
    for field in BATCH_ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
        else:
            same_array(a, b, f"batch {field}")
    same_adjacency(got.norm_adj, want.norm_adj, "batch norm_adj")
