"""Modules: Linear, GCNConv, GCNStack, Sequential, MLP, state dicts."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.nn.layers import (
    GCNConv,
    GCNStack,
    Linear,
    MLP,
    Module,
    ReLU,
    Sequential,
    Tanh,
    gcn_normalize_adjacency,
)
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import numeric_gradient


def normalized_csr(adjacency):
    """The GCN normalisation as the CSR matrix the convolutions take."""
    return sp.csr_matrix(gcn_normalize_adjacency(adjacency))


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestLinear:
    def test_output_shape_2d(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_output_shape_1d(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(rng.normal(size=4))).shape == (3,)

    def test_matches_manual_compute(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)

    def test_deterministic_init(self):
        a = Linear(4, 4, rng=0).weight.data
        b = Linear(4, 4, rng=0).weight.data
        np.testing.assert_array_equal(a, b)

    def test_gradients_flow_to_params(self, rng):
        layer = Linear(3, 2, rng=rng)
        loss = (layer(Tensor(rng.normal(size=(2, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestGCNNormalization:
    def test_symmetric(self, rng):
        adj = np.triu((rng.random((5, 5)) < 0.4).astype(float), 1)
        norm = gcn_normalize_adjacency(adj)
        np.testing.assert_allclose(norm, norm.T)

    def test_self_loops_give_nonzero_diagonal(self):
        norm = gcn_normalize_adjacency(np.zeros((3, 3)))
        assert (np.diag(norm) > 0).all()

    def test_isolated_node_row(self):
        # isolated node: only the self-loop → normalised weight 1
        adj = np.zeros((2, 2))
        norm = gcn_normalize_adjacency(adj)
        np.testing.assert_allclose(norm, np.eye(2))

    def test_known_two_node_graph(self):
        adj = np.array([[0.0, 1.0], [0.0, 0.0]])
        norm = gcn_normalize_adjacency(adj)
        # both nodes have degree 2 (self + edge): weights 1/2 everywhere
        np.testing.assert_allclose(norm, np.full((2, 2), 0.5))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            gcn_normalize_adjacency(np.zeros((2, 3)))

    def test_spectral_radius_at_most_one(self, rng):
        # D̃^{-1/2} Ã D̃^{-1/2} has eigenvalues in [-1, 1]; the top one is 1
        adj = np.triu((rng.random((8, 8)) < 0.5).astype(float), 1)
        norm = gcn_normalize_adjacency(adj)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9


class TestGCNConv:
    def test_output_shape(self, rng):
        conv = GCNConv(4, 6, rng=rng)
        adj = normalized_csr(np.zeros((3, 3)))
        out = conv(Tensor(rng.normal(size=(3, 4))), adj)
        assert out.shape == (3, 6)

    def test_matches_formula(self, rng):
        conv = GCNConv(3, 2, rng=rng)
        h = rng.normal(size=(4, 3))
        adj = np.triu((rng.random((4, 4)) < 0.5).astype(float), 1)
        norm = normalized_csr(adj)
        expected = norm.toarray() @ h @ conv.weight.data + conv.bias.data
        np.testing.assert_allclose(conv(Tensor(h), norm).data, expected)

    def test_size_mismatch_raises(self, rng):
        conv = GCNConv(3, 2, rng=rng)
        adj = normalized_csr(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(3, 3))), adj)

    def test_isolated_nodes_unmixed(self, rng):
        # with an empty graph, each node sees only itself
        conv = GCNConv(3, 3, rng=rng)
        h = rng.normal(size=(2, 3))
        norm = normalized_csr(np.zeros((2, 2)))
        out = conv(Tensor(h), norm)
        expected = h @ conv.weight.data + conv.bias.data
        np.testing.assert_allclose(out.data, expected)


class TestGCNStack:
    def test_layer_count(self, rng):
        stack = GCNStack(4, 8, 3, rng=rng)
        assert stack.num_layers == 3

    def test_output_shape(self, rng):
        stack = GCNStack(4, 8, 2, rng=rng)
        adj = normalized_csr(np.zeros((5, 5)))
        out = stack(Tensor(rng.normal(size=(5, 4))), adj)
        assert out.shape == (5, 8)

    def test_output_nonnegative_after_final_relu(self, rng):
        stack = GCNStack(4, 8, 2, rng=rng)
        adj = normalized_csr(np.zeros((5, 5)))
        out = stack(Tensor(rng.normal(size=(5, 4))), adj)
        assert (out.data >= 0).all()

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            GCNStack(4, 8, 0)

    def test_information_propagates_w_hops(self, rng):
        """A w-layer stack must see depth-w neighbours (paper: g = w)."""
        # chain 0→1→2; with 2 layers node 0's output depends on node 2's input
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 2] = 1.0
        norm = normalized_csr(adj)
        stack = GCNStack(2, 4, 2, rng=rng)
        h = rng.normal(size=(3, 2))
        base = stack(Tensor(h), norm).data[0].copy()
        h2 = h.copy()
        h2[2] += 10.0
        changed = stack(Tensor(h2), norm).data[0]
        assert not np.allclose(base, changed)


class TestModuleSystem:
    def test_named_parameters_nested(self, rng):
        mlp = MLP([3, 4, 2], rng=rng)
        names = [n for n, _ in mlp.named_parameters()]
        assert len(names) == 4  # 2 layers × (weight, bias)
        assert all("." in n for n in names)

    def test_num_parameters(self, rng):
        layer = Linear(3, 2, rng=rng)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng=rng)
        (layer(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        src = MLP([3, 5, 2], rng=rng)
        dst = MLP([3, 5, 2], rng=np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(src(x).data, dst(x).data)

    def test_state_dict_is_a_copy(self, rng):
        layer = Linear(2, 2, rng=rng)
        state = layer.state_dict()
        next(iter(state.values()))[:] = 0.0
        assert not (layer.weight.data == 0).all()

    def test_load_missing_key_raises(self, rng):
        layer = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_load_shape_mismatch_raises(self, rng):
        layer = Linear(2, 2, rng=rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_parameters_in_lists_discovered(self, rng):
        stack = GCNStack(3, 4, 2, rng=rng)
        # each conv: weight + bias
        assert len(stack.parameters()) == 4


class TestSequentialAndMLP:
    def test_sequential_applies_in_order(self, rng):
        seq = Sequential(Linear(3, 3, rng=rng), ReLU())
        out = seq(Tensor(rng.normal(size=(2, 3))))
        assert (out.data >= 0).all()

    def test_sequential_len_getitem(self, rng):
        seq = Sequential(Linear(2, 2, rng=rng), Tanh())
        assert len(seq) == 2
        assert isinstance(seq[1], Tanh)

    def test_mlp_shapes(self, rng):
        mlp = MLP([5, 8, 8, 2], rng=rng)
        assert mlp(Tensor(rng.normal(size=(3, 5)))).shape == (3, 2)

    def test_mlp_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_mlp_final_activation_flag(self, rng):
        mlp = MLP([3, 3], rng=rng, final_activation=True)
        out = mlp(Tensor(rng.normal(size=(4, 3))))
        assert (out.data >= 0).all()

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module().forward()


class TestLayerGradients:
    def test_gcnconv_weight_gradcheck(self, rng):
        conv = GCNConv(3, 2, rng=rng)
        h = rng.normal(size=(4, 3))
        adj = normalized_csr(
            np.triu((rng.random((4, 4)) < 0.5).astype(float), 1)
        )

        def loss():
            return float((conv(Tensor(h), adj) ** 2).sum().data)

        (conv(Tensor(h), adj) ** 2).sum().backward()
        num = numeric_gradient(loss, conv.weight.data)
        np.testing.assert_allclose(conv.weight.grad, num, atol=1e-5)

    def test_mlp_bias_gradcheck(self, rng):
        mlp = MLP([2, 3, 1], rng=rng)
        x = rng.normal(size=(3, 2))

        def loss():
            return float((mlp(Tensor(x)) ** 2).sum().data)

        (mlp(Tensor(x)) ** 2).sum().backward()
        bias = mlp.net[0].bias
        num = numeric_gradient(loss, bias.data)
        np.testing.assert_allclose(bias.grad, num, atol=1e-5)
