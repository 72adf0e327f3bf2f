"""Block-diagonal batching primitives: adjacency stacking + segment ops."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import block_diag_adjacency_sparse
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import assert_grad_matches


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestBlockDiagSparse:
    def test_two_blocks_placed_on_diagonal(self, rng):
        a = sp.csr_matrix(rng.random((2, 2)))
        b = sp.csr_matrix(rng.random((3, 3)))
        out = block_diag_adjacency_sparse([a, b]).toarray()
        assert out.shape == (5, 5)
        np.testing.assert_array_equal(out[:2, :2], a.toarray())
        np.testing.assert_array_equal(out[2:, 2:], b.toarray())
        assert not out[:2, 2:].any() and not out[2:, :2].any()

    def test_single_block_is_copy(self, rng):
        a = sp.csr_matrix(rng.random((4, 4)))
        out = block_diag_adjacency_sparse([a])
        np.testing.assert_array_equal(out.toarray(), a.toarray())
        assert not np.shares_memory(out.data, a.data)  # no aliasing

    def test_matches_scipy_block_diag(self, rng):
        blocks = [sp.csr_matrix(rng.random((k, k)) * (rng.random((k, k)) < 0.5))
                  for k in (1, 3, 2)]
        out = block_diag_adjacency_sparse(blocks)
        assert out.indices.dtype == out.indptr.dtype == np.int32
        np.testing.assert_array_equal(out.toarray(), sp.block_diag(blocks).toarray())

    def test_accepts_mixed_sparse_formats(self, rng):
        a = sp.coo_matrix(rng.random((2, 2)))
        b = sp.csr_matrix(rng.random((3, 3)))
        out = block_diag_adjacency_sparse([a, b])
        assert sp.issparse(out) and out.format == "csr"
        np.testing.assert_allclose(out.toarray(), sp.block_diag([a, b]).toarray())

    def test_rejects_a_dense_block(self, rng):
        with pytest.raises(ValueError, match="scipy sparse"):
            block_diag_adjacency_sparse([sp.csr_matrix(rng.random((2, 2))), rng.random((3, 3))])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            block_diag_adjacency_sparse([])

    def test_non_square_raises(self, rng):
        with pytest.raises(ValueError):
            block_diag_adjacency_sparse([sp.csr_matrix(rng.random((2, 3)))])


def naive_segment(op, x, ids, n):
    return np.stack([op(x[ids == s], axis=0) for s in range(n)])


class TestSegmentSum:
    def test_matches_naive(self, rng):
        x = rng.normal(size=(7, 3))
        ids = np.array([0, 0, 1, 2, 2, 2, 1])
        out = F.segment_sum(Tensor(x), ids, 3)
        np.testing.assert_allclose(out.data, naive_segment(np.sum, x, ids, 3))

    def test_empty_segment_sums_to_zero(self, rng):
        x = rng.normal(size=(3, 2))
        out = F.segment_sum(Tensor(x), np.array([0, 0, 2]), 3)
        np.testing.assert_array_equal(out.data[1], np.zeros(2))

    def test_gradient(self, rng):
        x = rng.normal(size=(6, 2))
        ids = np.array([1, 0, 1, 2, 0, 1])
        w = rng.normal(size=(3, 2))
        assert_grad_matches(
            lambda t: (F.segment_sum(t, ids, 3) * Tensor(w)).sum(), [x]
        )

    def test_bad_ids_raise(self, rng):
        x = Tensor(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            F.segment_sum(x, np.array([0, 1, 2, 3]), 3)  # id out of range
        with pytest.raises(ValueError):
            F.segment_sum(x, np.array([0, 1]), 2)  # length mismatch


class TestSegmentMeanPool:
    def test_matches_naive(self, rng):
        x = rng.normal(size=(8, 4))
        ids = np.repeat([0, 1, 2], [3, 1, 4])
        out = F.segment_mean_pool(Tensor(x), ids, 3)
        np.testing.assert_allclose(out.data, naive_segment(np.mean, x, ids, 3))

    def test_single_segment_equals_mean_pool(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            F.segment_mean_pool(Tensor(x), np.zeros(5, dtype=int), 1).data[0],
            F.mean_pool(Tensor(x)).data,
        )

    def test_empty_segment_raises(self, rng):
        with pytest.raises(ValueError):
            F.segment_mean_pool(Tensor(rng.normal(size=(2, 2))), np.array([0, 0]), 2)

    def test_gradient(self, rng):
        x = rng.normal(size=(6, 3))
        ids = np.array([0, 1, 1, 0, 2, 2])
        w = rng.normal(size=(3, 3))
        assert_grad_matches(
            lambda t: (F.segment_mean_pool(t, ids, 3) * Tensor(w)).sum(), [x]
        )


class TestSegmentMaxPool:
    def test_matches_naive(self, rng):
        x = rng.normal(size=(9, 4))
        ids = np.repeat([0, 1, 2], 3)
        out = F.segment_max_pool(Tensor(x), ids, 3)
        np.testing.assert_allclose(out.data, naive_segment(np.max, x, ids, 3))

    def test_single_segment_equals_max_pool(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            F.segment_max_pool(Tensor(x), np.zeros(5, dtype=int), 1).data[0],
            F.max_pool(Tensor(x)).data,
        )

    def test_empty_segment_raises(self, rng):
        with pytest.raises(ValueError):
            F.segment_max_pool(Tensor(rng.normal(size=(2, 2))), np.array([1, 1]), 2)

    def test_gradient(self, rng):
        x = rng.normal(size=(7, 3))
        ids = np.array([0, 0, 1, 1, 1, 2, 2])
        w = rng.normal(size=(3, 3))
        assert_grad_matches(
            lambda t: (F.segment_max_pool(t, ids, 3) * Tensor(w)).sum(), [x]
        )

    def test_tied_max_splits_gradient(self):
        # both rows of segment 0 hold the max: gradient splits evenly,
        # matching Tensor.max's tie convention.
        x = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
        F.segment_max_pool(x, np.array([0, 0, 1]), 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5], [0.5], [1.0]])


class TestSegmentLogSoftmax:
    def test_matches_per_segment_log_softmax(self, rng):
        x = rng.normal(size=9)
        ids = np.repeat([0, 1, 2], [4, 2, 3])
        out = F.segment_log_softmax(Tensor(x), ids, 3).data
        for s in range(3):
            np.testing.assert_allclose(
                out[ids == s], F.log_softmax(Tensor(x[ids == s])).data
            )

    def test_stable_for_large_values(self):
        x = Tensor(np.array([1000.0, 1000.0, -1000.0]))
        out = F.segment_log_softmax(x, np.array([0, 0, 1]), 2)
        assert np.all(np.isfinite(out.data))
        assert out.data[2] == pytest.approx(0.0)

    def test_probabilities_sum_to_one_per_segment(self, rng):
        x = rng.normal(size=10)
        ids = np.sort(rng.integers(0, 4, size=10))
        ids[:4] = [0, 1, 2, 3]  # ensure no empty segment
        ids = np.sort(ids)
        p = np.exp(F.segment_log_softmax(Tensor(x), ids, 4).data)
        for s in range(4):
            assert p[ids == s].sum() == pytest.approx(1.0)

    def test_requires_1d(self, rng):
        with pytest.raises(ValueError):
            F.segment_log_softmax(Tensor(rng.normal(size=(3, 2))),
                                  np.array([0, 0, 1]), 2)

    def test_gradient(self, rng):
        x = rng.normal(size=7)
        ids = np.array([0, 0, 0, 1, 1, 2, 2])
        w = rng.normal(size=7)
        assert_grad_matches(
            lambda t: (F.segment_log_softmax(t, ids, 3) * Tensor(w)).sum(), [x]
        )
