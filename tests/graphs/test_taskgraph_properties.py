"""Property-based TaskGraph invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.random_dag import erdos_dag, layered_dag


@given(n=st.integers(1, 30), p=st.floats(0.0, 0.6), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_topological_order_is_valid(n, p, seed):
    g = erdos_dag(n, p=p, rng=seed)
    order = g.topological_order()
    assert sorted(order) == list(range(n))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    if len(g.edges):
        assert (pos[g.edges[:, 0]] < pos[g.edges[:, 1]]).all()


@given(n=st.integers(1, 30), p=st.floats(0.0, 0.6), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_degree_sums_equal_edge_count(n, p, seed):
    g = erdos_dag(n, p=p, rng=seed)
    assert g.in_degree.sum() == g.num_edges
    assert g.out_degree.sum() == g.num_edges


@given(n=st.integers(2, 25), p=st.floats(0.05, 0.5), seed=st.integers(0, 10_000),
       d1=st.integers(0, 3), d2=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_descendants_monotone_in_depth(n, p, seed, d1, d2):
    g = erdos_dag(n, p=p, rng=seed)
    lo, hi = min(d1, d2), max(d1, d2)
    roots = g.roots()
    shallow = set(g.descendants_within(roots, lo))
    deep = set(g.descendants_within(roots, hi))
    assert shallow <= deep


@given(n=st.integers(2, 20), p=st.floats(0.1, 0.5), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_full_depth_descendants_of_roots_cover_non_roots(n, p, seed):
    g = erdos_dag(n, p=p, rng=seed)
    roots = g.roots()
    reached = set(g.descendants_within(roots, n)) | set(int(r) for r in roots)
    assert reached == set(range(n))


@given(n=st.integers(2, 20), p=st.floats(0.0, 0.6), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_induced_subgraph_edge_bound(n, p, seed):
    g = erdos_dag(n, p=p, rng=seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    nodes = rng.choice(n, size=k, replace=False)
    sub, ids = g.induced_subgraph(nodes)
    assert sub.num_tasks == len(np.unique(nodes))
    assert sub.num_edges <= g.num_edges
    # types preserved through the id map
    np.testing.assert_array_equal(sub.task_types, g.task_types[ids])


@given(layers=st.integers(1, 5), width=st.integers(1, 5), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_layered_longest_path(layers, width, seed):
    g = layered_dag(layers, width, rng=seed)
    assert g.longest_path_length() == layers - 1


@given(n=st.integers(1, 25), p=st.floats(0.0, 0.5), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_critical_path_at_least_max_weight(n, p, seed):
    g = erdos_dag(n, p=p, rng=seed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 5.0, size=n)
    cp = g.critical_path_length(w)
    assert cp >= w.max() - 1e-12
    assert cp <= w.sum() + 1e-12
