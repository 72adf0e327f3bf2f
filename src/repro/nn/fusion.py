"""ctypes loader for the C fusion core (``_fusion.c``).

The array training step (:func:`repro.nn.compile.array_step`) is
memory-bound in pure NumPy: its forward and backward walk the same
``(m, hidden)`` float64 arrays a dozen times because NumPy cannot fuse
elementwise chains or stream ``reduceat`` segments.  The C core fuses those
passes while reproducing each NumPy op sequence *bitwise* (see the header
comment of ``_fusion.c`` for the per-kernel argument).

The shared object is built on first use with the C compiler already in the
image (``cc -O3 -ffp-contract=off``) and cached under
``~/.cache/repro-fusion/`` keyed by source hash — not by compiler, so a
cached object can be stale or miscompiled.  ``load()`` therefore runs a
known-answer check before handing the core out: every kernel the training
step uses runs on a small fixed input with ties and must equal its NumPy
twin bit for bit.  Anything wrong — no compiler, sandboxed cache dir,
dlopen failure, a failed check — degrades to ``load()`` returning ``None``
and callers staying on their pure-NumPy kernels.  Set ``REPRO_NO_FUSION=1``
to force that path (the bench harness uses it to measure the NumPy
fallback).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

_SOURCE = Path(__file__).with_name("_fusion.c")

# resolved once per process: None = not attempted, False = unavailable
_LIB: object = None

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_F64 = ctypes.POINTER(ctypes.c_double)
_U8 = ctypes.POINTER(ctypes.c_uint8)

# fixed column capacity of the stack accumulators in pairwise_rows()
MAX_WIDTH = 64


class FusionLib:
    """Typed handle over the compiled fusion core.

    Thin wrappers that translate NumPy arrays to pointers; every array must
    be C-contiguous float64 / int64 / int32 / uint8 as noted.  No shape
    checking beyond what keeps the C code memory-safe — these are internal
    kernels of the array training step.
    """

    def __init__(self, cdll: ctypes.CDLL) -> None:
        self._lib = cdll
        for name, argtypes in {
            "spmm_i32": (ctypes.c_int64, ctypes.c_int64, _I32, _I32, _F64, _F64, _F64),
            "spmm_i64": (ctypes.c_int64, ctypes.c_int64, _I64, _I64, _F64, _F64, _F64),
            "spmm_bias_relu_i32": (ctypes.c_int64, ctypes.c_int64, _I32, _I32, _F64, _F64, _F64, _F64, _U8),
            "spmm_bias_relu_i64": (ctypes.c_int64, ctypes.c_int64, _I64, _I64, _F64, _F64, _F64, _F64, _U8),
            "pool_fwd": (ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64, _F64, _F64, _F64, _U8, _F64),
            "relu_bwd": (ctypes.c_int64, ctypes.c_int64, _F64, _U8, _F64, _F64),
            "gh_accum": (ctypes.c_int64, ctypes.c_int64, _I64, _I64, _F64, _F64, _U8, _F64, _F64),
        }.items():
            fn = getattr(cdll, name)
            fn.argtypes = list(argtypes)
            fn.restype = None

    @staticmethod
    def _p(arr: np.ndarray, ptype):
        return arr.ctypes.data_as(ptype)

    def spmm(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
             x: np.ndarray, out: np.ndarray) -> None:
        if indptr.dtype == np.int32:
            self._lib.spmm_i32(
                out.shape[0], x.shape[1], self._p(indptr, _I32),
                self._p(indices, _I32), self._p(data, _F64),
                self._p(x, _F64), self._p(out, _F64),
            )
        else:
            self._lib.spmm_i64(
                out.shape[0], x.shape[1], self._p(indptr, _I64),
                self._p(indices, _I64), self._p(data, _F64),
                self._p(x, _F64), self._p(out, _F64),
            )

    def spmm_bias_relu(self, indptr: np.ndarray, indices: np.ndarray,
                       data: np.ndarray, bias: np.ndarray, x: np.ndarray,
                       h: np.ndarray, mask: np.ndarray) -> None:
        if indptr.dtype == np.int32:
            self._lib.spmm_bias_relu_i32(
                h.shape[0], x.shape[1], self._p(indptr, _I32),
                self._p(indices, _I32), self._p(data, _F64),
                self._p(bias, _F64), self._p(x, _F64),
                self._p(h, _F64), self._p(mask, _U8),
            )
        else:
            self._lib.spmm_bias_relu_i64(
                h.shape[0], x.shape[1], self._p(indptr, _I64),
                self._p(indices, _I64), self._p(data, _F64),
                self._p(bias, _F64), self._p(x, _F64),
                self._p(h, _F64), self._p(mask, _U8),
            )

    def pool_fwd(self, starts: np.ndarray, h: np.ndarray, mp: np.ndarray,
                 pooled: np.ndarray, pmask: np.ndarray,
                 counts: np.ndarray) -> None:
        self._lib.pool_fwd(
            mp.shape[0], h.shape[0], h.shape[1], self._p(starts, _I64),
            self._p(h, _F64), self._p(mp, _F64), self._p(pooled, _F64),
            self._p(pmask, _U8), self._p(counts, _F64),
        )

    def relu_bwd(self, g: np.ndarray, mask: np.ndarray, ga: np.ndarray,
                 bias_grad: np.ndarray) -> None:
        self._lib.relu_bwd(
            g.shape[0], g.shape[1],
            self._p(g, _F64), self._p(mask, _U8),
            self._p(ga, _F64), self._p(bias_grad, _F64),
        )

    def gh_accum(self, gids: np.ndarray, ready_inv: np.ndarray,
                 gmp_div: np.ndarray, gpool_div: np.ndarray, pmask: np.ndarray,
                 gready: np.ndarray, gh: np.ndarray) -> None:
        self._lib.gh_accum(
            gh.shape[0], gh.shape[1],
            self._p(gids, _I64), self._p(ready_inv, _I64),
            self._p(gmp_div, _F64), self._p(gpool_div, _F64),
            self._p(pmask, _U8), self._p(gready, _F64), self._p(gh, _F64),
        )


def _find_compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = _which(cand)
        if path:
            return path
    return None


def _which(name: str) -> Optional[str]:
    for d in os.environ.get("PATH", "").split(os.pathsep):
        cand = os.path.join(d, name)
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
    return None


def _build(source: Path) -> Optional[Path]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    text = source.read_bytes()
    digest = hashlib.sha256(text).hexdigest()[:16]
    cache_dir = Path(
        os.environ.get("REPRO_FUSION_CACHE")
        or Path.home() / ".cache" / "repro-fusion"
    )
    so_path = cache_dir / f"fusion-{digest}.so"
    if so_path.exists():
        return so_path
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            dir=cache_dir, suffix=".so", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        # -ffp-contract=off is load-bearing: contracted FMAs change bits
        result = subprocess.run(
            [
                compiler, "-O3", "-shared", "-fPIC", "-ffp-contract=off",
                str(source), "-o", str(tmp_path), "-lm",
            ],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            return None
        tmp_path.replace(so_path)  # atomic under concurrent builders
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


def _bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _passes_known_answers(lib: FusionLib) -> bool:
    """Every kernel the training step uses, on a small fixed input with ties
    (repeated rows, ReLU zeros, all-zero max-pool columns), equals its NumPy
    twin from the ``fu=None`` path bit for bit."""
    from scipy import sparse as sp

    starts = np.array([0, 3], dtype=np.int64)
    gids = np.repeat(np.arange(2), 3)
    m, k = 6, 4
    adj = sp.csr_matrix(np.kron(np.eye(2), [[0.5, 0.25, 0.0], [0.25, 0.5, 0.3], [0.0, 0.3, 0.5]]))
    adj_t = adj.T.tocsr()
    x = 3.0 * np.sin(1.7 * np.arange(m * k, dtype=np.float64).reshape(m, k))
    x[1] = x[0]
    bias = np.array([0.3, -0.2, -50.0, 0.0])

    h = np.empty((m, k))
    mask = np.empty((m, k), dtype=np.bool_)
    lib.spmm_bias_relu(adj.indptr, adj.indices, adj.data, bias, x, h, mask)
    want = adj @ x
    want += bias
    want_mask = want > 0.0
    np.fmax(want, 0.0, out=want)
    ok = _bits(h, want) and _bits(mask, want_mask)

    mp, pooled, counts = np.empty((2, k)), np.empty((2, k)), np.empty((2, k))
    pmask = np.empty((m, k), dtype=np.bool_)
    lib.pool_fwd(starts, want, mp, pooled, pmask, counts)
    want_pooled = np.maximum.reduceat(want, starts, axis=0)
    want_pmask = want == want_pooled[gids]
    ok = ok and _bits(mp, np.add.reduceat(want, starts, axis=0))
    ok = ok and _bits(pooled, want_pooled) and _bits(pmask, want_pmask)
    ok = ok and _bits(counts, np.add.reduceat(want_pmask.astype(np.float64), starts, axis=0))

    g = np.cos(2.3 * np.arange(m * k, dtype=np.float64).reshape(m, k)) - 0.1
    ga, bias_grad = np.empty((m, k)), np.empty(k)
    lib.relu_bwd(g, want_mask, ga, bias_grad)
    want_ga = np.multiply(g, want_mask)
    ok = ok and _bits(ga, want_ga) and _bits(bias_grad, np.sum(want_ga, axis=0))

    out = np.empty((m, k))
    lib.spmm(adj_t.indptr, adj_t.indices, adj_t.data, want_ga, out)
    ok = ok and _bits(out, adj_t @ want_ga)

    ready_rows = np.array([0, 4])
    ready_inv = np.full(m, -1, dtype=np.int64)
    ready_inv[ready_rows] = np.arange(ready_rows.size)
    gmp, gpool, gready = g[:2].copy(), g[2:4].copy(), g[4:].copy()
    gh = np.empty((m, k))
    lib.gh_accum(gids, ready_inv, gmp, gpool, want_pmask, gready, gh)
    want_gh = gmp[gids] + np.where(want_pmask, gpool[gids], 0.0)
    scatter = np.zeros((m, k))
    scatter[ready_rows] = gready
    return ok and _bits(gh, want_gh + scatter)


def load() -> Optional[FusionLib]:
    """The process-wide fusion core, or ``None`` when unavailable.

    Compiles and caches the shared object on first call; later calls reuse
    the resolved handle.  Returns ``None`` (permanently for the process) if
    ``REPRO_NO_FUSION`` is set, no C compiler exists, the build fails, the
    object cannot be loaded, or its kernels fail the known-answer check.
    """
    global _LIB
    if _LIB is False:
        return None
    if _LIB is not None:
        return _LIB  # type: ignore[return-value]
    if os.environ.get("REPRO_NO_FUSION"):
        _LIB = False
        return None
    try:
        so_path = _build(_SOURCE)
        if so_path is None:
            _LIB = False
            return None
        lib = FusionLib(ctypes.CDLL(str(so_path)))
        _LIB = lib if _passes_known_answers(lib) else False
        return _LIB or None  # type: ignore[return-value]
    except (OSError, AttributeError):
        _LIB = False
        return None
