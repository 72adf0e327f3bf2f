"""Immutable task-DAG data structure with CSR adjacency.

Per the hpc-parallel guides the hot paths (ready-set maintenance, windowed
BFS, feature extraction) are vectorised: successor/predecessor lists are
stored as CSR index arrays, so per-node neighbour access is an O(1) slice and
whole-graph sweeps are NumPy ops rather than Python loops over edges.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class TaskGraph:
    """A directed acyclic graph of typed tasks.

    Parameters
    ----------
    num_tasks:
        Number of vertices; tasks are identified by ``0 .. num_tasks-1``.
    edges:
        Iterable of ``(u, v)`` pairs meaning *v depends on u* (u must finish
        before v may start).
    task_types:
        Integer kernel type per task (e.g. POTRF/TRSM/SYRK/GEMM).
    type_names:
        Human-readable kernel names indexed by type id.
    name:
        Optional label ("cholesky_T6", …) used in reports.
    """

    def __init__(
        self,
        num_tasks: int,
        edges: Iterable[Tuple[int, int]],
        task_types: Sequence[int],
        type_names: Sequence[str],
        name: str = "dag",
    ) -> None:
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be > 0, got {num_tasks}")
        self.num_tasks = int(num_tasks)
        self.name = name

        edge_array = np.array(sorted(set((int(u), int(v)) for u, v in edges)), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_tasks
        ):
            raise ValueError("edge endpoint out of range")
        if edge_array.size and np.any(edge_array[:, 0] == edge_array[:, 1]):
            raise ValueError("self-loops are not allowed in a task DAG")
        self.edges = edge_array

        types = np.asarray(task_types, dtype=np.int64)
        if types.shape != (num_tasks,):
            raise ValueError(
                f"task_types must have shape ({num_tasks},), got {types.shape}"
            )
        if types.size and (types.min() < 0 or types.max() >= len(type_names)):
            raise ValueError("task type id out of range of type_names")
        self.task_types = types
        self.type_names = tuple(type_names)
        self.num_types = len(self.type_names)

        self._build_csr()
        self._topo_order = self._topological_sort()  # raises on cycles

    # ------------------------------------------------------------------ #
    # construction internals
    # ------------------------------------------------------------------ #

    def _build_csr(self) -> None:
        n, e = self.num_tasks, self.edges
        # successors CSR (sorted by source)
        order = np.lexsort((e[:, 1], e[:, 0])) if len(e) else np.array([], dtype=np.int64)
        by_src = e[order] if len(e) else e
        self._succ_indptr = np.zeros(n + 1, dtype=np.int64)
        if len(e):
            counts = np.bincount(by_src[:, 0], minlength=n)
            self._succ_indptr[1:] = np.cumsum(counts)
        self._succ_indices = by_src[:, 1].copy() if len(e) else np.array([], dtype=np.int64)

        # predecessors CSR (sorted by target)
        order = np.lexsort((e[:, 0], e[:, 1])) if len(e) else np.array([], dtype=np.int64)
        by_dst = e[order] if len(e) else e
        self._pred_indptr = np.zeros(n + 1, dtype=np.int64)
        if len(e):
            counts = np.bincount(by_dst[:, 1], minlength=n)
            self._pred_indptr[1:] = np.cumsum(counts)
        self._pred_indices = by_dst[:, 0].copy() if len(e) else np.array([], dtype=np.int64)

        self.in_degree = np.diff(self._pred_indptr)
        self.out_degree = np.diff(self._succ_indptr)

    def _topological_sort(self) -> np.ndarray:
        """Kahn's algorithm; raises ``ValueError`` if the graph has a cycle."""
        n = self.num_tasks
        indeg = self.in_degree.copy()
        order = np.empty(n, dtype=np.int64)
        frontier = list(np.flatnonzero(indeg == 0))
        pos = 0
        while frontier:
            node = frontier.pop()
            order[pos] = node
            pos += 1
            for succ in self.successors(node):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    frontier.append(succ)
        if pos != n:
            raise ValueError("graph contains a cycle — not a DAG")
        return order

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def successors(self, task: int) -> np.ndarray:
        """Immediate successors of ``task`` (CSR slice; do not mutate)."""
        return self._succ_indices[self._succ_indptr[task]: self._succ_indptr[task + 1]]

    def predecessors(self, task: int) -> np.ndarray:
        """Immediate predecessors of ``task`` (CSR slice; do not mutate)."""
        return self._pred_indices[self._pred_indptr[task]: self._pred_indptr[task + 1]]

    def successors_of_many(self, tasks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated successor lists of ``tasks`` in one CSR gather.

        Returns ``(successors, counts)`` where ``successors`` is the
        concatenation of ``successors(t)`` for each ``t`` in order (with
        repeats if ``tasks`` repeats) and ``counts[i]`` is the successor
        count of ``tasks[i]`` — so ``np.repeat(tasks, counts)`` aligns each
        successor with its source.  This is the flat gather the vectorised
        simulator kernel and the windowed BFS both build on: positions are
        computed arithmetically (no Python loop over tasks).
        """
        tasks = np.asarray(tasks, dtype=np.int64)
        starts = self._succ_indptr[tasks]
        counts = self._succ_indptr[tasks + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        # flat index trick: for each output slot, its offset within the source
        # slice plus the slice start — arange minus the exclusive prefix sum
        cum = np.cumsum(counts)
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        return self._succ_indices[positions], counts

    def topological_order(self) -> np.ndarray:
        """A topological order of the tasks (copy)."""
        return self._topo_order.copy()

    def roots(self) -> np.ndarray:
        """Tasks with no predecessors (initially ready tasks)."""
        return np.flatnonzero(self.in_degree == 0)

    def sinks(self) -> np.ndarray:
        """Tasks with no successors."""
        return np.flatnonzero(self.out_degree == 0)

    def type_counts(self) -> np.ndarray:
        """Number of tasks of each kernel type."""
        return np.bincount(self.task_types, minlength=self.num_types)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the direct dependency u→v exists."""
        return bool(np.isin(v, self.successors(u)).any())

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency (A[u, v] = 1 iff u→v).  O(n²) memory."""
        a = np.zeros((self.num_tasks, self.num_tasks), dtype=np.float64)
        if len(self.edges):
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
        return a

    def descendants_within(self, sources: Iterable[int], depth: int) -> np.ndarray:
        """All tasks reachable from ``sources`` in at most ``depth`` hops.

        This implements the paper's window: the state keeps descending tasks
        whose depth (min path length from a ready/running task) is ≤ w.
        ``sources`` themselves are *not* included.  Vectorised BFS over CSR.
        """
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        visited = np.zeros(self.num_tasks, dtype=bool)
        frontier = np.unique(np.fromiter(sources, dtype=np.int64, count=-1))
        result = np.zeros(self.num_tasks, dtype=bool)
        visited[frontier] = True
        for _ in range(depth):
            if frontier.size == 0:
                break
            # gather successors of the whole frontier in one CSR sweep
            nxt, _counts = self.successors_of_many(frontier)
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            result[nxt] = True
            frontier = nxt
        return np.flatnonzero(result)

    def longest_path_length(self) -> int:
        """Number of edges on the longest path (graph depth)."""
        dist = np.zeros(self.num_tasks, dtype=np.int64)
        for node in self._topo_order:
            succ = self.successors(node)
            if succ.size:
                np.maximum.at(dist, succ, dist[node] + 1)
        return int(dist.max()) if self.num_tasks else 0

    def critical_path_length(self, weights: np.ndarray) -> float:
        """Length of the weighted critical path (weights per task)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.num_tasks,):
            raise ValueError("weights must have one entry per task")
        finish = np.zeros(self.num_tasks, dtype=np.float64)
        for node in self._topo_order:
            preds = self.predecessors(node)
            start = finish[preds].max() if preds.size else 0.0
            finish[node] = start + weights[node]
        return float(finish.max())

    def induced_subgraph(self, nodes: Sequence[int]) -> Tuple["TaskGraph", np.ndarray]:
        """Subgraph induced by ``nodes``.

        Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
        original task id of subgraph node ``i``.  Edge set is restricted to
        pairs internal to ``nodes``.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0:
            raise ValueError("cannot induce an empty subgraph")
        remap = -np.ones(self.num_tasks, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        if len(self.edges):
            mask = (remap[self.edges[:, 0]] >= 0) & (remap[self.edges[:, 1]] >= 0)
            sub_edges = np.column_stack(
                (remap[self.edges[mask, 0]], remap[self.edges[mask, 1]])
            )
        else:
            sub_edges = np.zeros((0, 2), dtype=np.int64)
        sub = TaskGraph(
            nodes.size,
            [tuple(e) for e in sub_edges],
            self.task_types[nodes],
            self.type_names,
            name=f"{self.name}_sub{nodes.size}",
        )
        return sub, nodes

    def validate(self) -> None:
        """Re-check structural invariants (acyclicity, CSR consistency)."""
        self._topological_sort()
        assert self.in_degree.sum() == self.num_edges
        assert self.out_degree.sum() == self.num_edges

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, types={list(self.type_names)})"
        )
