"""Sparse-adjacency support for the GCN (large-window scaling).

The windowed sub-DAG of a decision has m ≤ n nodes; the dense normalised
adjacency costs O(m²) memory and O(m²·h) per GCN layer.  Factorization DAGs
are sparse (average degree ≈ 3–4), so a CSR adjacency drops the layer cost
to O(nnz·h).  For the paper's sizes (m ≈ 45 on average) dense is fine; for
T ≳ 12 windows grow into the hundreds and sparse wins — measured in
``benchmarks/test_ablation_sparse.py``.

The sparse matrix is an episode constant (never differentiated); only the
dense feature operand carries gradients, with ``∂(A·H)/∂H = Aᵀ·g``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from scipy import sparse as sp

from repro.nn.tensor import Tensor

AdjacencyLike = Union[np.ndarray, sp.spmatrix]

def csr_parts(b: AdjacencyLike) -> tuple:
    """(data, int32 cols, int32 per-row counts, size) of one square block."""
    if sp.issparse(b):
        csr = b.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(
                f"adjacency blocks must be square, got shape {csr.shape}"
            )
        return (
            np.asarray(csr.data, dtype=np.float64),
            np.asarray(csr.indices, dtype=np.int32),
            np.asarray(np.diff(csr.indptr), dtype=np.int32),
            csr.shape[0],
        )
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"adjacency blocks must be 2-D, got shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"adjacency blocks must be square, got shape {arr.shape}")
    rows, cols = np.nonzero(arr)
    return (
        arr[rows, cols],
        cols.astype(np.int32),
        np.bincount(rows, minlength=arr.shape[0]).astype(np.int32),
        arr.shape[0],
    )


def block_diag_parts(parts: Sequence[tuple]) -> tuple:
    """``(data, int32 cols, int32 indptr)`` of the block-diagonal CSR matrix
    of per-block :func:`csr_parts` tuples.

    Block rows stay contiguous, so the result is a concatenation of the
    per-block (data, shifted cols, row counts).  scipy's generic
    ``block_diag`` routes every block through COO conversion, which
    dominates batched-forward time for many small blocks.
    """
    if not parts:
        raise ValueError("need at least one adjacency block")
    sizes = np.fromiter((p[3] for p in parts), dtype=np.int32, count=len(parts))
    offsets = np.zeros(len(parts), dtype=np.int32)
    np.cumsum(sizes[:-1], out=offsets[1:])
    nnz = np.fromiter((p[1].size for p in parts), dtype=np.int64, count=len(parts))
    cols = np.concatenate([p[1] for p in parts]) + np.repeat(offsets, nnz)
    # int32 is scipy's native index dtype — int64 inputs would be converted
    # (copied) inside the constructor on every batched forward.
    counts = np.concatenate([p[2] for p in parts])
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return np.concatenate([p[0] for p in parts]), cols, indptr


def block_diag_csr(parts: Sequence[tuple]) -> sp.csr_matrix:
    """CSR block-diagonal matrix from per-block :func:`csr_parts` tuples."""
    data, cols, indptr = block_diag_parts(parts)
    total = indptr.size - 1
    return sp.csr_matrix((data, cols, indptr), shape=(total, total))


def block_diag_adjacency_sparse(blocks: Sequence[AdjacencyLike]) -> sp.csr_matrix:
    """CSR block-diagonal matrix from per-graph adjacencies (dense or sparse).

    The batched-GCN companion of
    :func:`repro.nn.layers.block_diag_adjacency`: one sparse matmul over the
    block-diagonal costs O(Σ nnzᵢ · h) regardless of batch size, so K window
    forwards collapse into one without the dense form's O((Σmᵢ)²) blow-up.
    Mixed dense/CSR inputs are accepted — a batch may contain observations
    from dense- and sparse-mode state builders.
    """
    if not blocks:
        raise ValueError("need at least one adjacency block")
    return block_diag_csr([csr_parts(b) for b in blocks])


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


def gcn_normalize_adjacency_sparse(adjacency: AdjacencyLike) -> sp.csr_matrix:
    """Sparse ``D̃^{-1/2} Ã D̃^{-1/2}`` with symmetrisation and self-loops.

    Accepts a dense 0/1 matrix or any scipy sparse matrix; returns CSR.
    Matches :func:`repro.nn.layers.gcn_normalize_adjacency` numerically.
    """
    if sp.issparse(adjacency):
        a = adjacency.tocsr().astype(np.float64)
    else:
        arr = np.asarray(adjacency, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {arr.shape}")
        a = sp.csr_matrix(arr)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
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
