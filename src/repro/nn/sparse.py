"""CSR adjacency support for the GCN.

The window sub-DAG of a decision has m ≤ n nodes, and factorization DAGs
are sparse (average degree ≈ 3–4), so the normalised window adjacency is
CSR everywhere: the state builder emits it, observations carry it, the wire
ships it and every forward multiplies by it at O(nnz·h) per layer.  At the
paper's sizes (m ≈ 45 on average) a dense matrix would cost about the same;
windows of the T ≳ 12 instances grow into the hundreds of nodes
(``benchmarks/test_ablation_sparse.py`` times one decision per size).

The sparse matrix is an episode constant (never differentiated); only the
dense feature operand carries gradients, with ``∂(A·H)/∂H = Aᵀ·g``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.nn.tensor import Tensor


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` where ``matrix`` is a constant scipy sparse matrix.

    Gradient flows to ``x`` only: ``grad_x = matrixᵀ @ grad_out``.
    """
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {x.shape}"
        )
    csr = matrix.tocsr()
    out_data = csr @ x.data

    def backward(g: np.ndarray) -> None:
        x._accumulate(transpose_csr(csr) @ np.asarray(g))

    return x._make(np.asarray(out_data), (x,), backward)


def transpose_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Aᵀ as CSR, cached on the matrix.

    CSC matvecs (what ``csr.T @ g`` dispatches to) are several times slower
    than CSR, and the same adjacency serves every GCN layer plus repeated
    updates.  The tape's spmm backward and the array training step both
    take their transpose here, so both sum in the same float order.
    """
    transpose = getattr(csr, "_cached_transpose_csr", None)
    if transpose is None:
        transpose = csr.T.tocsr()
        csr._cached_transpose_csr = transpose
    return transpose


def gcn_normalize_adjacency_sparse(adjacency) -> sp.csr_matrix:
    """Sparse ``D̃^{-1/2} Ã D̃^{-1/2}`` with symmetrisation and self-loops.

    Accepts a dense 0/1 matrix or any scipy sparse matrix; returns CSR.
    Matches :func:`repro.nn.layers.gcn_normalize_adjacency` numerically.
    """
    shape = np.shape(adjacency)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"adjacency must be square, got shape {shape}")
    a = sp.csr_matrix(adjacency, dtype=np.float64)
    n = a.shape[0]
    sym = a + a.T
    sym.data = np.ones_like(sym.data)  # binarise
    a_tilde = (sym + sp.identity(n, format="csr")).tocsr()
    a_tilde.data = np.minimum(a_tilde.data, 1.0)
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d_half = sp.diags(inv_sqrt)
    return (d_half @ a_tilde @ d_half).tocsr()


def edges_to_sparse_adjacency(
    edges: np.ndarray, num_nodes: int
) -> sp.csr_matrix:
    """CSR 0/1 adjacency from an (e, 2) edge array (u→v rows)."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes))
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (e, 2), got {edges.shape}")
    data = np.ones(len(edges))
    return sp.csr_matrix(
        (data, (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes)
    )
