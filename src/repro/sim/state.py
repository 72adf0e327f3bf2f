"""Windowed state extraction — the MDP observation of §III-B.

A state contains information about *running* tasks, *ready* tasks and their
descendants up to depth ``w`` (Fig. 1), plus the state of the computing
resources.  :func:`build_observations` turns K live simulations into one
:class:`ObservationBatch`; each member is an :class:`Observation` view:

* the window sub-DAG's node features — the paper's raw features
  (:func:`repro.graphs.features.node_features`) *enriched* with normalised
  resource/duration context (expected duration of each task on each resource
  type, and the expected remaining time of running tasks), which is how the
  "sub-DAG enriched with the computing resource state information" of Fig. 2
  enters the GCN;
* the symmetric-normalised adjacency of the window (for GCN propagation);
* the positions of the ready tasks inside the window (the action set);
* a descriptor of the current processor and of the global resource state
  (used for the ∅-action score).

The batch stores the K windows as flat arrays: stacked node features, one
block-diagonal normalised CSR and the ready rows, which is exactly what the
batched GCN forward consumes.  :meth:`StateBuilder.build` is the K=1 batch,
the way :class:`~repro.sim.engine.Simulation` is a K=1 view of the kernel
(DESIGN.md §11.7).

All quantities are normalised so that the representation is size-invariant,
enabling the transfer experiments of §V-F.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.graphs.durations import DurationTable
from repro.graphs.features import (
    NUM_STATIC_FEATURES,
    descendant_type_fractions,
    node_features,
)
from repro.graphs.taskgraph import TaskGraph
from repro.platforms.resources import NUM_RESOURCE_TYPES
from repro.sim.engine import Simulation

#: extra per-node dynamic columns appended to the paper's raw features:
#: expected duration on each resource type (normalised), remaining time of
#: running tasks, expected duration on the *current* processor, and the
#: current processor's type broadcast to every node.  The last two are what
#: lets the per-task actor scores depend on which processor is asking —
#: without them the policy could not express "this kernel belongs on a GPU,
#: decline it on a CPU" (Fig. 2: the sub-DAG is "enriched with the computing
#: resource state information" before entering the GCN).
NUM_DYNAMIC_FEATURES = NUM_RESOURCE_TYPES + 1 + 1 + NUM_RESOURCE_TYPES

#: current-processor descriptor width:
#: one-hot(type) + [idle fraction, ready fraction, mean remaining (norm)]
PROC_FEATURE_DIM = NUM_RESOURCE_TYPES + 3


def observation_feature_dim(num_types: int) -> int:
    """Node-feature width of observations for graphs with ``num_types`` kernels."""
    return NUM_STATIC_FEATURES + 2 * num_types + NUM_DYNAMIC_FEATURES


class _lazy:
    """Compute-once attribute: the first read stores the value in the
    instance dict, which then shadows this (non-data) descriptor, so later
    reads and plain assignments are ordinary attribute accesses.  Read on
    the class it raises ``AttributeError``, so as a dataclass field it has
    no default."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = self.fn(obj)
        obj.__dict__[self.name] = value
        return value


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _matrix_of_parts(obs: "Observation") -> sp.csr_matrix:
    """``norm_adj`` of an observation built from CSR parts (a batch view, a
    decoded payload, the terminal stand-in): a matrix over the parts."""
    data, indices, indptr = obs._adj_parts
    m = indptr.size - 1
    adj = sp.csr_matrix((data, indices, indptr), shape=(m, m))
    # scipy copies a small view of a larger buffer; keep it read-only
    for part in (adj.data, adj.indices, adj.indptr):
        _frozen(part)
    return adj


@dataclass
class Observation:
    """One decision point of the scheduling MDP."""

    features: np.ndarray
    """(m, F) node features of the window sub-DAG"""
    norm_adj: sp.csr_matrix = _lazy(_matrix_of_parts)  # type: ignore[assignment]
    """(m, m) GCN-normalised adjacency of the window as a
    ``scipy.sparse.csr_matrix`` (build one from a 0/1 adjacency with
    ``repro.nn.sparse.gcn_normalize_adjacency_sparse``).  The constructor
    also takes its ``(data, int32 indices, int32 indptr)`` parts; the
    matrix is then built on first read.  The forwards and the codec read
    the parts through :meth:`adjacency_parts`."""
    ready_positions: np.ndarray
    """row indices (into ``features``) of the ready tasks, = the action set"""
    ready_tasks: np.ndarray
    """original task ids aligned with ``ready_positions``"""
    proc_features: np.ndarray
    """(PROC_FEATURE_DIM,) descriptor of the current processor + global state"""
    current_proc: int
    """processor awaiting a decision"""
    allow_pass: bool
    """whether the ∅ action is legal (False would deadlock the system)"""
    window_fingerprint: Optional[bytes] = None
    """raw bytes of the sorted window node ids — identifies the window node
    set"""
    extra_node_features: int = 0
    """count of builder-appended trailing feature columns beyond the base
    layout (the streaming environment appends job-id/arrival-age columns);
    consumers that index columns from the *end* of the base layout must
    subtract it (see ``GreedyScheduler.decide_observation``)"""

    def __post_init__(self) -> None:
        adj = self.__dict__["norm_adj"]
        if isinstance(adj, tuple):
            data, indices, indptr = adj
            if not (data.dtype == np.float64 and indices.dtype == indptr.dtype == np.int32):
                raise ValueError(
                    "norm_adj parts must be (float64 data, int32 indices, "
                    f"int32 indptr), got ({data.dtype}, {indices.dtype}, {indptr.dtype})"
                )
            self._adj_parts = adj
            del self.__dict__["norm_adj"]  # built over the parts when read
        else:
            _check_sparse(adj)

    def adjacency_parts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` of ``norm_adj`` — the CSR parts the
        forward and the codec read, without building a matrix."""
        adj = self.__dict__.get("norm_adj")
        if adj is None:
            return self._adj_parts
        _check_sparse(adj)
        return adj.data, adj.indices, adj.indptr

    @property
    def num_actions(self) -> int:
        """Ready-task choices plus the ∅ action when legal."""
        return len(self.ready_positions) + (1 if self.allow_pass else 0)

    @property
    def num_nodes(self) -> int:
        """Window size (running + ready + ≤w-depth descendants)."""
        return self.features.shape[0]


def _check_sparse(adj: object) -> None:
    if getattr(adj, "format", None) != "csr":
        raise ValueError(
            "norm_adj must be a scipy.sparse.csr_matrix (or its CSR parts), "
            f"got {type(adj).__name__}; normalise a 0/1 window adjacency with "
            "repro.nn.sparse.gcn_normalize_adjacency_sparse"
        )
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"norm_adj must be square, got shape {adj.shape}")


class BatchObservation(Observation):
    """Member ``index`` of an :class:`ObservationBatch`.

    The array fields are read from the batch on first access (``features``
    is a slice of the batch's stacked features; the adjacency parts are the
    member's rows of the batch's CSR), so a member that is only stepped,
    never fed to a network, costs a few scalar reads.
    """

    def __new__(cls, *args, **fields):
        # built from the dataclass fields (``type(obs)(features=...)``,
        # ``dataclasses.replace``), a copy is a plain, detached Observation
        if fields:
            return Observation(*args, **fields)
        return super().__new__(cls)

    def __init__(self, batch: "ObservationBatch", index: int) -> None:
        self._batch = batch
        self._index = index
        self.current_proc = int(batch.current_procs[index])
        self.allow_pass = bool(batch.allow_pass[index])
        self.extra_node_features = int(batch.extra_node_features[index])

    def _nodes(self) -> slice:
        off = self._batch.node_offsets
        return slice(int(off[self._index]), int(off[self._index + 1]))

    def _ready(self) -> slice:
        off = self._batch.ready_offsets
        return slice(int(off[self._index]), int(off[self._index + 1]))

    @_lazy
    def features(self) -> np.ndarray:
        return self._batch.feats[self._nodes()]

    @_lazy
    def ready_positions(self) -> np.ndarray:
        return self._batch.ready_local[self._ready()]

    @_lazy
    def ready_tasks(self) -> np.ndarray:
        return self._batch.ready_tasks[self._ready()]

    @_lazy
    def proc_features(self) -> np.ndarray:
        return self._batch.proc_features[self._index]

    @_lazy
    def window_fingerprint(self) -> bytes:
        return self._batch.tasks[self._nodes()].tobytes()

    @_lazy
    def _adj_parts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Member rows of the batch's block-diagonal CSR, as read-only views
        (shifted copies for every member but the first)."""
        b, nodes = self._batch, self._nodes()
        indptr = b.adj_indptr[nodes.start: nodes.stop + 1]
        lo, hi = int(indptr[0]), int(indptr[-1])
        indices = b.adj_indices[lo:hi]
        if nodes.start:
            indptr = indptr - np.int32(lo)
            indices = indices - np.int32(nodes.start)
        return _frozen(b.adj_data[lo:hi]), _frozen(indices), _frozen(indptr)


class ObservationBatch(Sequence):
    """K observations stored as the flat arrays of one batched forward.

    ``feats`` stacks the K windows' node features; ``adj_data``/
    ``adj_indices``/``adj_indptr`` are their block-diagonal normalised
    adjacency as one int32 CSR; ``ready_rows`` are the ready tasks' rows in
    ``feats``.  Indexing yields :class:`BatchObservation` views, so a batch
    is a drop-in ``Sequence[Observation]``.
    """

    def __init__(
        self,
        *,
        feats: np.ndarray,
        node_offsets: np.ndarray,
        graph_ids: np.ndarray,
        tasks: np.ndarray,
        adj_data: np.ndarray,
        adj_indices: np.ndarray,
        adj_indptr: np.ndarray,
        ready_rows: np.ndarray,
        num_ready: np.ndarray,
        current_procs: np.ndarray,
        allow_pass: np.ndarray,
        proc_features: np.ndarray,
        extra_node_features: np.ndarray,
    ) -> None:
        self.feats = feats
        """(Σm, F) stacked node features"""
        self.node_offsets = node_offsets
        """(K+1,) member k's nodes are ``feats[off[k]:off[k+1]]``"""
        self.graph_ids = graph_ids
        """(Σm,) member index of every node row"""
        self.tasks = tasks
        """(Σm,) task id of every node row (sorted within a member)"""
        self.adj_data = adj_data
        """normalised adjacency value of every stored entry"""
        self.adj_indices = adj_indices
        """int32 global column of every stored entry"""
        self.adj_indptr = adj_indptr
        """int32 row pointer over all Σm rows"""
        self.ready_rows = ready_rows
        """rows of ``feats`` holding ready tasks, member-major"""
        self.num_ready = num_ready
        self.ready_offsets = np.zeros(len(num_ready) + 1, dtype=np.int64)
        num_ready.cumsum(out=self.ready_offsets[1:])
        self.ready_tasks = tasks[ready_rows]
        self.ready_local = ready_rows - node_offsets[graph_ids[ready_rows]]
        """ready rows relative to their member's first node row"""
        self.current_procs = current_procs
        self.allow_pass = allow_pass
        self.proc_features = proc_features
        """(K, PROC_FEATURE_DIM) processor descriptors"""
        self.extra_node_features = extra_node_features

    def __len__(self) -> int:
        return len(self.current_procs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        k = len(self)
        i = int(index)
        if i < 0:
            i += k
        if not 0 <= i < k:
            raise IndexError(f"batch index {index} out of range for {k} members")
        return BatchObservation(self, i)

    def __iter__(self):
        for i in range(len(self)):
            yield BatchObservation(self, i)

    @property
    def sizes(self) -> List[int]:
        """Window size of every member."""
        return np.diff(self.node_offsets).tolist()


def action_for_task(obs: Observation, task: Optional[int]) -> int:
    """Map a scheduler-style choice (task id or ``None`` = idle) to an action.

    The inverse of the observation's action indexing: ``None`` maps to the ∅
    action (requires ``obs.allow_pass``), a task id maps to its position in
    ``obs.ready_tasks``.  Raises ``ValueError`` for a task outside the ready
    set and for ∅ where passing is illegal — surfacing scheduler bugs at the
    decision instead of deadlocking the episode later.
    """
    if task is None:
        if not obs.allow_pass:
            raise ValueError(
                "scheduler chose to idle but the ∅ action is illegal here "
                "(nothing running and no other processor left to ask)"
            )
        return int(len(obs.ready_tasks))
    matches = np.flatnonzero(np.asarray(obs.ready_tasks) == int(task))
    if matches.size == 0:
        raise ValueError(
            f"scheduler chose task {task} which is not ready "
            f"(ready set: {np.asarray(obs.ready_tasks).tolist()})"
        )
    return int(matches[0])


class StateBuilder:
    """Builds observations of live simulations (see :func:`build_observations`).

    Per-graph constants (descendant-type fractions, the feature template,
    the successor and symmetric-neighbour tables) are cached on first use:
    they dominate state-extraction cost and never change within an episode.
    """

    #: trailing feature columns this builder appends beyond the base layout;
    #: agents size their input dimension as
    #: ``observation_feature_dim(num_types) + extra_node_features``
    extra_node_features = 0

    #: graph-dict key of this builder class's feature template (subclasses
    #: with extra columns cache theirs under their own key)
    _TEMPLATE_KEY = "_cached_feature_template"

    def __init__(self, durations: DurationTable, window: int) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.window = window
        self.durations = durations
        # normalisation scale for all duration-valued features
        self._scale = float(durations.table.mean())

    # Per-graph constants are cached *on the graph object*, so their
    # lifetime is exactly the graph's.  A builder-level dict keyed by
    # ``id(graph)`` would grow without bound under per-episode graph
    # factories and could return stale entries when a collected graph's id
    # is reused by a new instance.

    # Memoised arrays are frozen (``setflags(write=False)``) before caching:
    # they are shared across every observation of an episode, so an aliasing
    # write from a caller would silently corrupt all later rollouts — frozen,
    # the write raises at the faulty line instead.

    @staticmethod
    def _fractions(graph: TaskGraph) -> np.ndarray:
        cached = graph.__dict__.get("_cached_type_fractions")
        if cached is None:
            cached = descendant_type_fractions(graph)
            cached.setflags(write=False)
            graph.__dict__["_cached_type_fractions"] = cached
        return cached

    @staticmethod
    def _static_features(graph: TaskGraph, fractions: np.ndarray) -> np.ndarray:
        """Raw feature matrix with the ready/running columns left at zero.

        Degrees, type one-hots and descendant fractions never change within
        an episode; per decision only columns 2–3 are dynamic, so the window
        rows can be gathered from this constant and patched in place.
        """
        cached = graph.__dict__.get("_cached_static_features")
        if cached is None:
            cached = node_features(graph, fractions=fractions)
            cached.setflags(write=False)
            graph.__dict__["_cached_static_features"] = cached
        return cached

    def _expected_norm(self, graph: TaskGraph) -> np.ndarray:
        """Per-task expected durations over resource types, pre-normalised."""
        cached = graph.__dict__.get("_cached_expected_norm")
        if cached is None or cached[0] is not self.durations:
            expected = self.durations.expected_vector(graph.task_types) / self._scale
            expected.setflags(write=False)
            cached = (self.durations, expected)
            graph.__dict__["_cached_expected_norm"] = cached
        return cached[1]

    def _make_template(self, graph: TaskGraph) -> Tuple[np.ndarray, int]:
        raw = self._static_features(graph, self._fractions(graph))
        template = np.zeros(
            (graph.num_tasks, raw.shape[1] + NUM_DYNAMIC_FEATURES), dtype=np.float64
        )
        template[:, : raw.shape[1]] = raw
        template[:, raw.shape[1]: raw.shape[1] + NUM_RESOURCE_TYPES] = (
            self._expected_norm(graph)
        )
        return template, raw.shape[1]

    def _feature_template(self, graph: TaskGraph) -> Tuple[np.ndarray, int]:
        """(n, F) feature matrix with every graph-static column filled in,
        and the raw-feature width.

        Layout matches the observation rows:
        ``[raw | exp per type | remaining | exp on current | current one-hot]``
        followed by the builder's extra columns.  Only the ready/running
        flags (raw columns 2–3), the remaining column, the current-processor
        block and dynamic extra columns change per decision, so a batch of
        observations is one row gather plus a handful of column patches.
        """
        cached = graph.__dict__.get(self._TEMPLATE_KEY)
        if cached is None or cached[0] is not self.durations:
            template, raw_width = self._make_template(graph)
            template.setflags(write=False)
            cached = (self.durations, template, raw_width)
            graph.__dict__[self._TEMPLATE_KEY] = cached
        return cached[1], cached[2]

    def _age_scale(self, graph: TaskGraph) -> Optional[float]:
        """Divisor of a trailing arrival-age column, or ``None`` without one.

        A builder whose template's last column holds each node's arrival
        instant gets it rewritten per decision as ``(now - arrival) / scale``.
        """
        return None

    def window_nodes(self, sim: Simulation) -> np.ndarray:
        """Sorted task ids inside the observation window."""
        source = sim.ready | sim.running
        if not source.any():
            raise RuntimeError("no ready or running task — episode is over")
        return _layout([self], [sim]).window_ids(source)

    def build(
        self,
        sim: Simulation,
        current_proc: int,
        allow_pass: Optional[bool] = None,
    ) -> Observation:
        """Extract the observation for ``current_proc`` at the current instant.

        ``allow_pass`` overrides the default ∅-action legality (the
        environment masks ∅ only when declining would deadlock: nothing is
        running *and* no other idle processor remains to be offered).  This
        is the K=1 case of :func:`build_observations`.
        """
        return build_observations([self], [sim], [current_proc], [allow_pass])[0]

    def build_terminal(self, sim: Simulation) -> Observation:
        """Degenerate observation of a *finished* episode.

        The MDP has no decision point at the terminal state (the window
        would be empty), so the environment historically returned ``None``.
        The vectorised wrapper stashes this well-formed stand-in as
        ``infos[k]["terminal_observation"]`` (gym convention): zero window
        nodes, an empty action set, ``current_proc=-1``, and a global
        resource descriptor of the all-idle platform — shaped so batched
        consumers can embed it without special-casing, while ``num_actions
        == 0`` still marks it as non-actionable.
        """
        template, _raw_width = self._feature_template(sim.graph)
        features = np.zeros((0, template.shape[1]), dtype=np.float64)
        no_entries = np.empty(0, dtype=np.int32)
        norm_adj = (np.empty(0), no_entries, np.zeros(1, dtype=np.int32))
        empty = np.empty(0, dtype=np.int64)
        proc_features = np.zeros(PROC_FEATURE_DIM, dtype=np.float64)
        proc_features[NUM_RESOURCE_TYPES] = 1.0  # every processor is idle
        return Observation(
            features=features,
            norm_adj=norm_adj,
            ready_positions=empty,
            ready_tasks=empty.copy(),
            proc_features=proc_features,
            current_proc=-1,
            allow_pass=False,
            extra_node_features=self.extra_node_features,
        )

    def proc_descriptor(self, sim: Simulation, current_proc: int) -> np.ndarray:
        """Current-processor + resource-state summary vector.

        The descriptor :func:`build_observations` embeds, for one processor
        (both run :func:`_proc_descriptors`).
        """
        r_idx, _p_idx, _tasks, remaining = sim._kernel.busy_remaining(
            np.asarray([sim._row])
        )
        return _proc_descriptors(
            sim.platform.num_processors,
            sim.platform.resource_types[[current_proc]],
            np.asarray([sim.ready.sum()]),
            np.asarray([self._scale]),
            r_idx,
            remaining,
        )[0]


def _proc_descriptors(
    num_procs: int,
    cur_types: np.ndarray,
    num_ready: np.ndarray,
    scales: np.ndarray,
    r_idx: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """(R, PROC_FEATURE_DIM) descriptors of R kernel rows.

    ``num_ready`` counts each row's ready tasks; ``r_idx``/``remaining``
    are the rows' busy processors in the compact form of
    :meth:`~repro.sim.kernel.SimKernel.busy_remaining`.  The mean remaining
    time sums the rows that have the same busy count as one contiguous
    ``(rows, count)`` block, which reproduces ``mean()`` of each row's busy
    entries bit for bit.
    """
    r = cur_types.size
    out = np.zeros((r, PROC_FEATURE_DIM), dtype=np.float64)
    out[np.arange(r), cur_types] = 1.0
    busy_count = np.bincount(r_idx, minlength=r)
    out[:, NUM_RESOURCE_TYPES] = (num_procs - busy_count) / num_procs
    out[:, NUM_RESOURCE_TYPES + 1] = np.minimum(1.0, num_ready / max(1, num_procs))
    starts = np.cumsum(busy_count) - busy_count
    for count in sorted(set(busy_count.tolist()) - {0}):
        sel = np.flatnonzero(busy_count == count)
        block = remaining[starts[sel, None] + np.arange(count)]
        out[sel, NUM_RESOURCE_TYPES + 2] = block.sum(axis=1) / count / scales[sel]
    return out


def _padded(counts: np.ndarray, values: np.ndarray, fill: int) -> np.ndarray:
    """(n, max count) table whose row i holds the next ``counts[i]`` of
    ``values`` (a CSR flattened in row order), padded with ``fill``."""
    n = counts.size
    table = np.full((n, max(1, int(counts.max(initial=0)))), fill, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(n), counts)
    table[rows, np.arange(values.size) - starts[rows]] = values
    return table


def _successor_table(graph: TaskGraph) -> np.ndarray:
    """(n, D) successor ids of every task, -1 padded (cached on the graph)."""
    cached = graph.__dict__.get("_cached_successor_table")
    if cached is None:
        succ, counts = graph.successors_of_many(np.arange(graph.num_tasks))
        cached = _padded(counts, succ, -1)
        cached.setflags(write=False)
        graph.__dict__["_cached_successor_table"] = cached
    return cached


def _neighbour_table(graph: TaskGraph) -> np.ndarray:
    """(n, D) sorted neighbour ids of every task, self included, -1 padded.

    The symmetric adjacency with self-loops of the GCN normalisation
    (predecessors ∪ successors ∪ {self}) as a padded table, cached on the
    graph: one row gather yields every window node's candidate neighbours.
    """
    cached = graph.__dict__.get("_cached_neighbours")
    if cached is None:
        n, e = graph.num_tasks, graph.edges
        loops = np.arange(n, dtype=np.int64)
        src = np.concatenate((e[:, 0], e[:, 1], loops)) if len(e) else loops
        dst = np.concatenate((e[:, 1], e[:, 0], loops)) if len(e) else loops
        pairs = np.unique(src * n + dst)  # sorted by (src, dst), deduplicated
        cached = _padded(np.bincount(pairs // n, minlength=n), pairs % n, -1)
        cached.setflags(write=False)
        graph.__dict__["_cached_neighbours"] = cached
    return cached


def _stack(tables: List[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """Per-graph -1-padded id tables stacked into one id space: member m's
    ids shift by ``offsets[m]`` and padding becomes ``offsets[-1]``."""
    total = int(offsets[-1])
    out = np.full(
        (total, max(t.shape[1] for t in tables)), total, dtype=np.int64
    )
    for table, lo, hi in zip(tables, offsets[:-1], offsets[1:]):
        out[lo:hi, : table.shape[1]] = np.where(table >= 0, table + lo, total)
    return out


class _BatchLayout:
    """The graph-static arrays of one member tuple, stacked in member order.

    Member m's graph occupies *stacked ids* ``offsets[m]:offsets[m+1]``, so
    the K graphs form one disconnected graph with one feature template, one
    successor table and one neighbour table.  Id ``S = offsets[-1]`` is the
    padding sentinel of both tables.  A layout depends only on which
    builder observes which graph in which kernel row, so a vectorised
    environment reuses it until a member starts a new episode.
    """

    def __init__(self, builders: list, sims: list) -> None:
        k = len(builders)
        graphs = [sim.graph for sim in sims]
        templates = [b._feature_template(g) for b, g in zip(builders, graphs)]
        widths = sorted({(t.shape[1], w) for t, w in templates})
        if len(widths) > 1:
            raise ValueError(
                "members disagree on observation feature width "
                f"(total, raw): {widths}"
            )
        self.refs = (builders, graphs)  # keep the keyed ids alive
        sizes = np.asarray([g.num_tasks for g in graphs], dtype=np.int64)
        self.offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        total = int(self.offsets[-1])
        self.member = np.repeat(np.arange(k), sizes)
        self.task = np.arange(total) - self.offsets[self.member]
        self.template = np.concatenate([t for t, _w in templates])
        self.width, self.raw_width = widths[0]
        self.successors = _stack([_successor_table(g) for g in graphs], self.offsets)
        self.neighbours = _stack([_neighbour_table(g) for g in graphs], self.offsets)
        windows = sorted({b.window for b in builders})
        if len(windows) > 1:
            raise ValueError(f"members disagree on window depth: {windows}")
        self.window = windows[0]
        self.scales = np.asarray([b._scale for b in builders], dtype=np.float64)
        self.extra = np.asarray(
            [b.extra_node_features for b in builders], dtype=np.int64
        )
        ages = [b._age_scale(g) for b, g in zip(builders, graphs)]
        self.age_scale = np.asarray([a or 0.0 for a in ages], dtype=np.float64)
        #: which stacked ids' template holds an arrival instant in its last
        #: column: None, every id (a slice) or a mask
        aged = np.asarray([a is not None for a in ages])
        self.aged = (
            None if not aged.any()
            else slice(None) if aged.all()
            else aged[self.member]
        )
        #: (kernel, its members, their rows, their stacked ids) per kernel
        rows = np.asarray([sim._row for sim in sims], dtype=np.int64)
        by_kernel: Dict[int, List[int]] = {}
        for m, sim in enumerate(sims):
            by_kernel.setdefault(id(sim._kernel), []).append(m)
        self.kernels = []
        for members in by_kernel.values():
            idx = np.asarray(members, dtype=np.int64)
            ids = (
                slice(None) if len(members) == k
                else np.flatnonzero(np.isin(self.member, idx))
            )
            self.kernels.append(
                (sims[members[0]]._kernel, idx, rows[idx], ids, rows[self.member[ids]])
            )

    def window_ids(self, source: np.ndarray) -> np.ndarray:
        """Sorted stacked ids in the window of the ``source`` (ready or
        running) mask: one frontier expansion of ``window`` hops over the
        stacked successor table serves every member.  A descendant of an
        unfinished task cannot have finished, so no finished mask applies.
        """
        seen = np.append(source, True)  # the sentinel id counts as seen
        frontier = np.flatnonzero(source)
        for _hop in range(self.window):
            found = self.successors[frontier].ravel()
            frontier = found[~seen[found]]
            if not frontier.size:
                break
            seen[frontier] = True
        return np.flatnonzero(seen[:-1])


#: layouts memoised per kernel (the first member's); a new member tuple
#: evicts the oldest once this many are held
_LAYOUTS_PER_KERNEL = 8


def _layout(builders: list, sims: list) -> _BatchLayout:
    key = tuple(
        (id(b), id(sim._kernel), sim._row, id(sim.graph))
        for b, sim in zip(builders, sims)
    )
    memo = sims[0]._kernel.observation_layouts
    layout = memo.get(key)
    if layout is None:
        layout = _BatchLayout(builders, sims)
        while len(memo) >= _LAYOUTS_PER_KERNEL:
            memo.pop(next(iter(memo)))
        memo[key] = layout
    return layout


def build_observations(
    builders: "list[StateBuilder]",
    sims: "list[Simulation]",
    procs: "list[int]",
    allow_passes: "list[Optional[bool]]",
) -> ObservationBatch:
    """Build the observations of K members as one :class:`ObservationBatch`.

    Member ``i`` is ``builders[i]`` observing ``sims[i]`` for processor
    ``procs[i]``; ``allow_passes[i]`` overrides ∅ legality (``None``: legal
    while a task runs).  The K graphs are stacked into one id space
    (:class:`_BatchLayout`), so every step below is one array pass for the
    whole batch, never a loop over members:

    * window: one frontier expansion over the stacked successor table;
    * features: one row gather from the stacked template, then the dynamic
      columns (ready/running flags, remaining time, current-processor block,
      arrival age) patched by fancy indexing;
    * adjacency: one stacked-neighbour gather through a task → row remap,
      ``bincount`` degrees and ``data = inv[src] * inv[col]``, which equals
      ``gcn_normalize_adjacency_sparse`` of the window bit for bit;
    * remaining times and processor descriptors: one pass per kernel.

    Every member's features, adjacency, ready set and descriptor are
    bit-identical to building it alone (``tests/sim/test_state_batch.py``).
    """
    k = len(builders)
    if not (k == len(sims) == len(procs) == len(allow_passes)):
        raise ValueError("builders/sims/procs/allow_passes must align")
    if k == 0:
        raise ValueError("build_observations needs at least one member")
    layout = _layout(builders, sims)
    total = int(layout.offsets[-1])
    ready_all = np.empty(total, dtype=bool)
    running_all = np.empty(total, dtype=bool)
    for kernel, _members, _rows, ids, id_rows in layout.kernels:
        ready_all[ids] = kernel.ready[id_rows, layout.task[ids]]
        running_all[ids] = kernel.running[id_rows, layout.task[ids]]
    nodes = layout.window_ids(ready_all | running_all)  # member-major, sorted
    n_total = nodes.size
    graph_ids = layout.member[nodes]
    sizes = np.bincount(graph_ids, minlength=k)
    if not sizes.all():  # a window holds at least its sources
        raise RuntimeError("no ready or running task — episode is over")
    node_offsets = np.zeros(k + 1, dtype=np.int64)
    sizes.cumsum(out=node_offsets[1:])
    ready_flat = ready_all[nodes]
    ready_rows = np.flatnonzero(ready_flat)
    # ready tasks are window sources, so this counts every ready task
    num_ready = np.bincount(graph_ids[ready_rows], minlength=k)

    feats = layout.template[nodes]
    feats[:, 2] = ready_flat
    feats[:, 3] = running_all[nodes]
    remap = np.full(total + 1, -1, dtype=np.int64)  # stacked id → batch row
    remap[nodes] = np.arange(n_total)

    procs_arr = np.asarray(procs, dtype=np.int64)
    cur_types = np.empty(k, dtype=np.int64)
    allow = np.asarray([bool(a) for a in allow_passes], dtype=bool)
    proc_features = np.empty((k, PROC_FEATURE_DIM), dtype=np.float64)
    for kernel, members, rows, _ids, _id_rows in layout.kernels:
        r_idx, _p_idx, tasks, remaining = kernel.busy_remaining(rows)
        owner = members[r_idx]
        at = remap[layout.offsets[owner] + tasks]
        feats[at, layout.raw_width + NUM_RESOURCE_TYPES] = remaining / layout.scales[owner]
        cur_types[members] = kernel.platform.resource_types[procs_arr[members]]
        proc_features[members] = _proc_descriptors(
            kernel.platform.num_processors, cur_types[members], num_ready[members],
            layout.scales[members], r_idx, remaining,
        )
        for m, row in zip(members.tolist(), rows.tolist()):
            if allow_passes[m] is None:  # ∅ is legal while a task runs
                allow[m] = kernel.running[row].any()

    # current-processor context, broadcast to every node of its member
    node_idx = np.arange(n_total)
    type_col = layout.raw_width + cur_types[graph_ids]
    exp_current_col = layout.raw_width + NUM_RESOURCE_TYPES + 1
    feats[:, exp_current_col] = feats[node_idx, type_col]
    feats[node_idx, type_col + (NUM_RESOURCE_TYPES + 2)] = 1.0
    if layout.aged is not None:  # the template holds each node's arrival instant
        sel = layout.aged if isinstance(layout.aged, slice) else layout.aged[nodes]
        times = np.empty(k, dtype=np.float64)
        for kernel, members, rows, _ids, _id_rows in layout.kernels:
            times[members] = kernel.time[rows]
        owner = graph_ids[sel]
        last = layout.width - 1
        feats[sel, last] = (times[owner] - feats[sel, last]) / layout.age_scale[owner]

    # normalised adjacency: in-window neighbours, D^-1/2 (A+I) D^-1/2
    positions = remap[layout.neighbours[nodes]]
    keep = positions >= 0
    src, _slot = np.nonzero(keep)
    cols = positions[keep]
    degrees = np.bincount(src, minlength=n_total)
    inv_sqrt = 1.0 / np.sqrt(degrees.astype(np.float64))
    indptr = np.zeros(n_total + 1, dtype=np.int32)
    degrees.cumsum(out=indptr[1:])

    return ObservationBatch(
        feats=feats,
        node_offsets=node_offsets,
        graph_ids=graph_ids,
        tasks=layout.task[nodes],
        adj_data=inv_sqrt[src] * inv_sqrt[cols],
        adj_indices=cols.astype(np.int32),
        adj_indptr=indptr,
        ready_rows=ready_rows,
        num_ready=num_ready,
        current_procs=procs_arr,
        allow_pass=allow,
        proc_features=proc_features,
        extra_node_features=layout.extra,
    )
