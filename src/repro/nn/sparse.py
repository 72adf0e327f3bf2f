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

from typing import Sequence

import numpy as np
from scipy import sparse as sp

from repro.nn.tensor import Tensor


def block_diag_parts(parts: Sequence[tuple]) -> tuple:
    """``(data, int32 indices, int32 indptr)`` of the block-diagonal CSR
    matrix of square blocks given as ``(data, indices, indptr)`` parts.

    Block rows stay contiguous, so the result is a concatenation of the
    per-block entries with shifted columns and row pointers.  scipy's
    generic ``block_diag`` routes every block through COO conversion, which
    dominates batched-forward time for many small blocks.
    """
    if not parts:
        raise ValueError("need at least one adjacency block")
    k = len(parts)
    sizes = np.fromiter((p[2].size - 1 for p in parts), dtype=np.int64, count=k)
    nnz = np.fromiter((p[1].size for p in parts), dtype=np.int64, count=k)
    # int32 is scipy's native index dtype — int64 inputs would be converted
    # (copied) inside the kernels on every batched forward.
    node_offsets = np.zeros(k, dtype=np.int32)
    np.cumsum(sizes[:-1], out=node_offsets[1:])
    entry_offsets = np.zeros(k, dtype=np.int32)
    np.cumsum(nnz[:-1], out=entry_offsets[1:])
    indices = np.concatenate([p[1] for p in parts]) + np.repeat(node_offsets, nnz)
    indptr = np.zeros(int(sizes.sum()) + 1, dtype=np.int32)
    indptr[1:] = np.concatenate([p[2][1:] for p in parts]) + np.repeat(entry_offsets, sizes)
    return np.concatenate([p[0] for p in parts]), indices, indptr


def block_diag_adjacency_sparse(blocks: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    """CSR block-diagonal matrix from per-graph sparse adjacencies.

    Stacking K window sub-DAGs into one disconnected graph lets a single
    GCN pass process the whole batch: messages cannot cross the empty
    off-diagonal blocks, and one sparse matmul costs O(Σ nnzᵢ · h)
    regardless of batch size.
    """
    parts = []
    for b in blocks:
        if not sp.issparse(b):
            raise ValueError(
                f"adjacency blocks must be scipy sparse matrices, got {type(b).__name__}"
            )
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"adjacency blocks must be square, got shape {b.shape}")
        csr = b.tocsr()
        parts.append((
            np.asarray(csr.data, dtype=np.float64),
            csr.indices.astype(np.int32, copy=False),
            csr.indptr.astype(np.int32, copy=False),
        ))
    data, indices, indptr = block_diag_parts(parts)
    total = indptr.size - 1
    return sp.csr_matrix((data, indices, indptr), shape=(total, total))


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
