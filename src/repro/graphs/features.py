"""Raw node features of the paper's state representation (§III-B).

Each task i is represented as

.. math::

    \\hat X_i = [|S(i)|,\\ |P(i)|,\\ type(i),\\ ready(i),\\ F(i)]

where ``F(i)`` summarises the descendants of i: the recursion

.. math::

    \\bar F(i) = e_{type(i)} + \\sum_{c \\in S(i)} \\bar F(c) / |P(c)|,
    \\qquad F(i) = \\bar F(i) / \\bar F(0)

distributes each descendant's unit weight equally among its predecessors, so
that for a single-root DAG ``F̄(root)`` equals exactly the per-type task
counts.  We normalise by the per-type totals (identical to ``F̄(root)`` for a
single root, and well defined for multi-root DAGs), which is what makes the
representation size-invariant and enables transfer between problem sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.taskgraph import TaskGraph

#: number of feature columns before the per-type F block and type one-hot:
#: [num_successors (norm), num_predecessors (norm), ready flag, running flag]
NUM_STATIC_FEATURES = 4


def descendant_weights(graph: TaskGraph) -> np.ndarray:
    """Unnormalised per-type descendant weights ``F̄(i)``, shape (n, num_types).

    Each node contributes weight 1 of its own type, split equally among its
    predecessors when propagating upwards.  The sweep runs by height (edges
    on the longest path down to a sink): a node's successors all sit lower,
    so every row of one height pulls final rows, with one ``np.add.at`` per
    height.  Its in-edges are sorted by (predecessor, the successor's
    reverse-topological rank), so each row adds its terms in the order of a
    node-by-node reverse-topological sweep, bit for bit.
    """
    n, k = graph.num_tasks, graph.num_types
    f = np.zeros((n, k), dtype=np.float64)
    f[np.arange(n), graph.task_types] = 1.0
    inv_in_degree = np.zeros(n, dtype=np.float64)
    nonzero = graph.in_degree > 0
    inv_in_degree[nonzero] = 1.0 / graph.in_degree[nonzero]
    src, dst = graph.edges[:, 0], graph.edges[:, 1]

    # peel sinks level by level: a node's height is the level its last
    # successor left it at
    height = np.zeros(n, dtype=np.int64)
    remaining = graph.out_degree.copy()
    frontier = np.flatnonzero(remaining == 0)
    level = 0
    while frontier.size:
        height[frontier] = level
        in_frontier = np.zeros(n, dtype=bool)
        in_frontier[frontier] = True
        hits = np.bincount(src[in_frontier[dst]], minlength=n)
        remaining -= hits
        frontier = np.flatnonzero((remaining == 0) & (hits > 0))
        level += 1

    rank = np.empty(n, dtype=np.int64)
    rank[graph.topological_order()[::-1]] = np.arange(n)
    order = np.lexsort((rank[dst], src, height[src]))
    src, dst = src[order], dst[order]
    bounds = np.searchsorted(height[src], np.arange(1, level + 1))
    for a, b in zip(bounds[:-1], bounds[1:]):
        succ = dst[a:b]
        np.add.at(f, src[a:b], f[succ] * inv_in_degree[succ, None])
    return f


def descendant_type_fractions(graph: TaskGraph) -> np.ndarray:
    """Normalised ``F(i)``: descendant weights over per-type task totals.

    Rows sum over types to (weighted descendant count)/(total tasks); the
    root row of a single-root DAG is exactly all ones.
    """
    f = descendant_weights(graph)
    totals = graph.type_counts().astype(np.float64)
    # A type absent from the graph contributes zero weight everywhere; avoid 0/0.
    safe = np.where(totals > 0, totals, 1.0)
    return f / safe


def node_features(
    graph: TaskGraph,
    ready: Optional[np.ndarray] = None,
    running: Optional[np.ndarray] = None,
    fractions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full raw feature matrix X̂, shape (n, NUM_STATIC_FEATURES + 2·num_types).

    Columns: [#succ / n, #pred / n, ready, running, one-hot(type), F(i)].
    Degree counts are normalised by the graph size so that features live on a
    comparable scale across problem sizes (the paper stresses normalisation
    "to facilitate policy transfer between graphs of different sizes").

    ``ready`` / ``running`` are boolean masks over tasks (default all-False).
    ``fractions`` lets callers pass a precomputed :func:`descendant_type_fractions`
    (it is a per-graph constant — recomputing it at every scheduling decision
    would dominate the state-extraction cost).
    """
    n, k = graph.num_tasks, graph.num_types
    if ready is None:
        ready = np.zeros(n, dtype=bool)
    if running is None:
        running = np.zeros(n, dtype=bool)
    ready = np.asarray(ready, dtype=bool)
    running = np.asarray(running, dtype=bool)
    if ready.shape != (n,) or running.shape != (n,):
        raise ValueError("ready and running masks must have one entry per task")
    if fractions is None:
        fractions = descendant_type_fractions(graph)
    if fractions.shape != (n, k):
        raise ValueError(
            f"fractions must have shape ({n}, {k}), got {fractions.shape}"
        )

    features = np.empty((n, NUM_STATIC_FEATURES + 2 * k), dtype=np.float64)
    features[:, 0] = graph.out_degree / n
    features[:, 1] = graph.in_degree / n
    features[:, 2] = ready.astype(np.float64)
    features[:, 3] = running.astype(np.float64)
    eye = np.eye(k, dtype=np.float64)
    features[:, NUM_STATIC_FEATURES: NUM_STATIC_FEATURES + k] = eye[graph.task_types]
    features[:, NUM_STATIC_FEATURES + k:] = fractions
    return features


def feature_dim(num_types: int) -> int:
    """Width of the raw feature matrix for a graph with ``num_types`` kernels."""
    return NUM_STATIC_FEATURES + 2 * num_types
