"""Node features and the recursive descendant-type fractions F(i) (§III-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.features import (
    NUM_STATIC_FEATURES,
    descendant_type_fractions,
    descendant_weights,
    feature_dim,
    node_features,
)
from repro.graphs.random_dag import erdos_dag, layered_dag
from repro.graphs.taskgraph import TaskGraph
from repro.graphs.workloads import make_mixed_families
from repro.sim.streaming import disjoint_union


def diamond() -> TaskGraph:
    return TaskGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [0, 1, 1, 0], ("A", "B"))


def reference_descendant_weights(graph: TaskGraph) -> np.ndarray:
    """The node-by-node reverse-topological sweep: each node, once final,
    pushes its weight split by in-degree onto its predecessors."""
    n, k = graph.num_tasks, graph.num_types
    f = np.zeros((n, k), dtype=np.float64)
    f[np.arange(n), graph.task_types] = 1.0
    inv_in_degree = np.zeros(n, dtype=np.float64)
    nonzero = graph.in_degree > 0
    inv_in_degree[nonzero] = 1.0 / graph.in_degree[nonzero]
    for node in graph.topological_order()[::-1]:
        preds = graph.predecessors(node)
        if preds.size:
            f[preds] += f[node] * inv_in_degree[node]
    return f


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def dags(draw):
    """A DAG on shuffled labels (so the topological order is not the
    identity) with random kernel types."""
    n = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 8))]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    num_types = draw(st.integers(1, 4))
    types = draw(st.lists(st.integers(0, num_types - 1), min_size=n, max_size=n))
    edges = [(labels[i], labels[j]) for i, j in chosen]
    return TaskGraph(n, edges, types, tuple("ABCD"[:num_types]))


class TestDescendantWeightsMatchesTheSweep:
    @given(dags())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_on_random_dags(self, graph):
        assert_bitwise(descendant_weights(graph), reference_descendant_weights(graph))

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_on_mixed_families_union_graphs(self, seed):
        workload = make_mixed_families(("cholesky", "lu", "qr", "random"))
        rng = np.random.default_rng(seed)
        graph, _job_of, _offsets = disjoint_union(
            [workload.sample(rng) for _ in range(8)]
        )
        assert_bitwise(descendant_weights(graph), reference_descendant_weights(graph))

    def test_bitwise_on_factorizations(self):
        for tiles in (1, 2, 6, 9):
            graph = cholesky_dag(tiles)
            assert_bitwise(descendant_weights(graph), reference_descendant_weights(graph))


class TestDescendantWeights:
    def test_leaf_weight_is_own_type(self):
        g = diamond()
        f = descendant_weights(g)
        np.testing.assert_allclose(f[3], [1.0, 0.0])  # node 3 is type A

    def test_root_counts_all_tasks_per_type(self):
        """F̄(root) of a single-root DAG equals the per-type task counts."""
        g = diamond()
        f = descendant_weights(g)
        np.testing.assert_allclose(f[0], g.type_counts().astype(float))

    def test_root_identity_on_cholesky(self):
        g = cholesky_dag(5)
        f = descendant_weights(g)
        root = g.roots()[0]
        np.testing.assert_allclose(f[root], g.type_counts().astype(float))

    def test_recursion_definition(self):
        """F̄(i) = e_type(i) + Σ_{c∈S(i)} F̄(c)/|P(c)| checked node by node."""
        g = cholesky_dag(4)
        f = descendant_weights(g)
        for i in range(g.num_tasks):
            expected = np.zeros(g.num_types)
            expected[g.task_types[i]] = 1.0
            for c in g.successors(i):
                expected += f[c] / g.in_degree[c]
            np.testing.assert_allclose(f[i], expected)

    def test_conservation(self):
        """Each task contributes total weight exactly 1 summed over roots."""
        g = cholesky_dag(6)
        f = descendant_weights(g)
        roots = g.roots()
        np.testing.assert_allclose(
            f[roots].sum(axis=0), g.type_counts().astype(float)
        )


class TestFractions:
    def test_root_row_is_all_ones(self):
        g = cholesky_dag(5)
        frac = descendant_type_fractions(g)
        np.testing.assert_allclose(frac[g.roots()[0]], np.ones(g.num_types))

    def test_values_in_unit_interval(self):
        g = cholesky_dag(6)
        frac = descendant_type_fractions(g)
        assert (frac >= -1e-12).all()
        assert (frac <= 1.0 + 1e-12).all()

    def test_missing_type_column_is_zero(self):
        g = TaskGraph(2, [(0, 1)], [0, 0], ("A", "B"))
        frac = descendant_type_fractions(g)
        np.testing.assert_allclose(frac[:, 1], 0.0)

    def test_size_invariance_of_root(self):
        """The normalised root representation is the same at every size —
        the property that makes transfer between T values possible."""
        for t in (4, 8, 12):
            g = cholesky_dag(t)
            frac = descendant_type_fractions(g)
            np.testing.assert_allclose(frac[g.roots()[0]], np.ones(4))


class TestNodeFeatures:
    def test_shape(self):
        g = cholesky_dag(4)
        x = node_features(g)
        assert x.shape == (20, feature_dim(4))

    def test_degree_columns_normalised(self):
        g = cholesky_dag(4)
        x = node_features(g)
        np.testing.assert_allclose(x[:, 0], g.out_degree / g.num_tasks)
        np.testing.assert_allclose(x[:, 1], g.in_degree / g.num_tasks)

    def test_ready_running_flags(self):
        g = diamond()
        ready = np.array([True, False, False, False])
        running = np.array([False, True, False, False])
        x = node_features(g, ready=ready, running=running)
        np.testing.assert_allclose(x[:, 2], ready.astype(float))
        np.testing.assert_allclose(x[:, 3], running.astype(float))

    def test_type_one_hot(self):
        g = diamond()
        x = node_features(g)
        onehot = x[:, NUM_STATIC_FEATURES : NUM_STATIC_FEATURES + 2]
        np.testing.assert_allclose(onehot.sum(axis=1), np.ones(4))
        np.testing.assert_allclose(onehot[:, 0], (g.task_types == 0).astype(float))

    def test_precomputed_fractions_used(self):
        g = diamond()
        frac = descendant_type_fractions(g)
        x = node_features(g, fractions=frac)
        np.testing.assert_allclose(x[:, NUM_STATIC_FEATURES + 2 :], frac)

    def test_wrong_mask_shape_raises(self):
        with pytest.raises(ValueError):
            node_features(diamond(), ready=np.zeros(3, dtype=bool))

    def test_wrong_fraction_shape_raises(self):
        with pytest.raises(ValueError):
            node_features(diamond(), fractions=np.zeros((4, 3)))


@given(st.integers(2, 30), st.floats(0.05, 0.6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_conservation_property_random_dags(n, p, seed):
    """Summed over roots, F̄ equals the per-type totals on any DAG."""
    g = erdos_dag(n, p=p, rng=seed)
    f = descendant_weights(g)
    np.testing.assert_allclose(
        f[g.roots()].sum(axis=0), g.type_counts().astype(float), atol=1e-9
    )


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_fractions_bounded_random_layered(layers, width, seed):
    g = layered_dag(layers, width, rng=seed)
    frac = descendant_type_fractions(g)
    assert (frac >= -1e-12).all() and (frac <= 1 + 1e-9).all()
