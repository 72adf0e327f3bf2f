"""Sparse adjacency path: spmm autograd, sparse GCN normalisation."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.nn.layers import GCNConv, GCNStack, gcn_normalize_adjacency
from repro.nn.sparse import (
    edges_to_sparse_adjacency,
    gcn_normalize_adjacency_sparse,
    sparse_matmul,
)
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import numeric_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def random_dag_adj(n, rng, p=0.3):
    return np.triu((rng.random((n, n)) < p).astype(float), 1)


def dense_gcn(convs, h, dense_norm_adj):
    """The GCN stack's math with a dense normalised adjacency: the
    reference the CSR forward is held to."""
    for conv in convs:
        h = np.maximum(dense_norm_adj @ (h @ conv.weight.data) + conv.bias.data, 0.0)
    return h


def dense_policy(agent, obs, dense_norm_adj):
    """π(a|s) computed in dense NumPy from ``agent``'s weights."""
    h = dense_gcn(agent.gcn.convs, obs.features, dense_norm_adj)
    logits = (h[obs.ready_positions] @ agent.task_score.weight.data
              + agent.task_score.bias.data).ravel()
    if obs.allow_pass:
        ctx = np.concatenate([h.max(axis=0), obs.proc_features])
        pass_logit = ctx @ agent.pass_score.weight.data + agent.pass_score.bias.data
        logits = np.concatenate([logits, pass_logit])
    p = np.exp(logits - logits.max())
    return p / p.sum()


class TestSparseMatmul:
    def test_matches_dense(self, rng):
        a = random_dag_adj(6, rng)
        x = rng.normal(size=(6, 4))
        dense = a @ x
        out = sparse_matmul(sp.csr_matrix(a), Tensor(x))
        np.testing.assert_allclose(out.data, dense)

    def test_gradient_matches_numeric(self, rng):
        a = sp.csr_matrix(random_dag_adj(5, rng))
        x = rng.normal(size=(5, 3))
        t = Tensor(x, requires_grad=True)
        (sparse_matmul(a, t) ** 2).sum().backward()

        def f():
            return float((sparse_matmul(a, Tensor(x)) ** 2).sum().data)

        num = numeric_gradient(f, x)
        np.testing.assert_allclose(t.grad, num, atol=1e-5)

    def test_shape_mismatch(self, rng):
        a = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            sparse_matmul(a, Tensor(np.zeros((4, 2))))

    def test_no_grad_when_input_constant(self, rng):
        a = sp.csr_matrix(random_dag_adj(4, rng))
        out = sparse_matmul(a, Tensor(rng.normal(size=(4, 2))))
        assert not out.requires_grad


class TestSparseNormalization:
    def test_matches_dense_normalization(self, rng):
        adj = random_dag_adj(8, rng)
        dense = gcn_normalize_adjacency(adj)
        sparse = gcn_normalize_adjacency_sparse(adj).toarray()
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_accepts_sparse_input(self, rng):
        adj = random_dag_adj(6, rng)
        out = gcn_normalize_adjacency_sparse(sp.csr_matrix(adj)).toarray()
        np.testing.assert_allclose(out, gcn_normalize_adjacency(adj))

    def test_empty_graph(self):
        out = gcn_normalize_adjacency_sparse(np.zeros((3, 3)))
        np.testing.assert_allclose(out.toarray(), np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            gcn_normalize_adjacency_sparse(np.zeros((2, 3)))


class TestEdgesToSparse:
    def test_basic(self):
        adj = edges_to_sparse_adjacency(np.array([[0, 1], [1, 2]]), 3)
        np.testing.assert_allclose(
            adj.toarray(), [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        )

    def test_empty_edges(self):
        adj = edges_to_sparse_adjacency(np.zeros((0, 2)), 4)
        assert adj.shape == (4, 4)
        assert adj.nnz == 0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            edges_to_sparse_adjacency(np.array([[0, 1, 2]]), 3)


class TestGCNWithSparseAdjacency:
    def test_conv_output_matches_dense(self, rng):
        adj = random_dag_adj(7, rng)
        h = rng.normal(size=(7, 5))
        conv = GCNConv(5, 4, rng=0)
        dense_out = gcn_normalize_adjacency(adj) @ (h @ conv.weight.data) + conv.bias.data
        sparse_out = conv(Tensor(h), gcn_normalize_adjacency_sparse(adj))
        np.testing.assert_allclose(sparse_out.data, dense_out, atol=1e-12)

    def test_stack_output_matches_dense(self, rng):
        adj = random_dag_adj(7, rng)
        h = rng.normal(size=(7, 5))
        stack = GCNStack(5, 8, 2, rng=0)
        dense_out = dense_gcn(stack.convs, h, gcn_normalize_adjacency(adj))
        sparse_out = stack(Tensor(h), gcn_normalize_adjacency_sparse(adj))
        np.testing.assert_allclose(sparse_out.data, dense_out, atol=1e-12)

    def test_gradients_flow_through_sparse_path(self, rng):
        adj = gcn_normalize_adjacency_sparse(random_dag_adj(5, rng))
        conv = GCNConv(3, 2, rng=0)
        (conv(Tensor(rng.normal(size=(5, 3))), adj) ** 2).sum().backward()
        assert conv.weight.grad is not None


class TestSparseEnvEndToEnd:
    def test_sparse_env_matches_dense_env(self):
        """The env's CSR observation gives the policy that the dense
        normalisation of its window gives."""
        from repro.graphs.cholesky import cholesky_dag
        from repro.graphs.durations import CHOLESKY_DURATIONS
        from repro.platforms import NoNoise, Platform
        from repro.rl.trainer import default_agent
        from repro.sim.env import SchedulingEnv

        graph = cholesky_dag(4)
        env = SchedulingEnv(graph, Platform(2, 2), CHOLESKY_DURATIONS,
                            NoNoise(), window=2, rng=0)
        agent = default_agent(env, rng=0)
        obs = env.reset().obs
        nodes = env.state_builder.window_nodes(env.sim)
        dense = gcn_normalize_adjacency(graph.adjacency_matrix()[np.ix_(nodes, nodes)])
        np.testing.assert_allclose(obs.norm_adj.toarray(), dense, atol=1e-15)
        np.testing.assert_allclose(
            agent.action_distribution(obs), dense_policy(agent, obs, dense), atol=1e-12,
        )

    def test_full_episode_sparse(self):
        from repro.graphs.cholesky import cholesky_dag
        from repro.graphs.durations import CHOLESKY_DURATIONS
        from repro.platforms import NoNoise, Platform
        from repro.rl.trainer import default_agent, evaluate_agent
        from repro.sim.env import SchedulingEnv

        env = SchedulingEnv(
            cholesky_dag(4), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
            window=2, rng=0,
        )
        agent = default_agent(env, rng=0)
        mks = evaluate_agent(agent, env, episodes=1, rng=0)
        assert mks[0] > 0
        env.sim.check_trace()
