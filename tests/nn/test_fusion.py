"""Bitwise unit tests for the C fusion core against its NumPy mirrors.

Every kernel in ``_fusion.c`` claims to reproduce a specific NumPy op
sequence *bitwise* — same pairwise-summation tree as ``np.add.reduceat``,
same tie and NaN rules as ``np.maximum`` / ``np.fmax``, same sequential
accumulation orders.  ``fusion.load()`` re-checks the training step's
kernels on one small fixed input, and the differential suite
``tests/rl/test_array_step.py`` checks whole steps on live batches, but
neither covers every branch.  These tests pin each kernel in isolation on
adversarial inputs: segment lengths straddling every pairwise-summation
branch, wildly mixed magnitudes (so any reassociation changes bits),
negative zeros, NaNs, and exact ties.

All float comparisons go through the raw uint64 bit patterns so that
``-0.0 == 0.0`` and ``NaN != NaN`` cannot mask a divergence.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse as sp

from repro.nn import fusion

LIB = fusion.load()
pytestmark = pytest.mark.skipif(
    LIB is None, reason="C fusion core unavailable (no compiler or REPRO_NO_FUSION)"
)

RNG = np.random.default_rng(20260808)

#: lengths covering every pairwise_rows branch: sequential (< 8), the
#: 8-accumulator block (8..128) with and without an odd tail, and the
#: halving recursion (> 128) including a split remainder
SEG_LENGTHS = (1, 2, 7, 8, 9, 64, 127, 128, 129, 300)


def wild(shape):
    """float64s spanning ~34 decades: any reassociated sum changes bits."""
    mag = np.exp(RNG.uniform(-40.0, 40.0, size=shape))
    return RNG.normal(size=shape) * mag


def seg_starts(lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.concatenate(([0], np.cumsum(lengths[:-1]))), int(lengths.sum())


def assert_bits(actual, expected):
    """Bitwise float64 equality: distinguishes -0.0/0.0 and matches NaNs."""
    a, e = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    np.testing.assert_array_equal(a.view(np.uint64), e.view(np.uint64))


def check_pool_fwd(lengths, h):
    """Run ``pool_fwd`` and check all four outputs bitwise against
    ``np.add.reduceat`` (sum), ``np.maximum.reduceat`` (max), ``np.equal``
    (tie mask) and the tie counts; returns (sum, max, tie mask, counts)."""
    starts, m = seg_starts(lengths)
    gids = np.repeat(np.arange(len(lengths)), lengths)
    nseg, k = len(lengths), h.shape[1]
    mp, pooled, pcounts = (np.empty((nseg, k)) for _ in range(3))
    pmask = np.empty((m, k), dtype=np.bool_)
    LIB.pool_fwd(starts, h, mp, pooled, pmask, pcounts)
    ref_pooled = np.maximum.reduceat(h, starts, axis=0)
    ref_pmask = np.equal(h, ref_pooled[gids])
    assert_bits(mp, np.add.reduceat(h, starts, axis=0))
    assert_bits(pooled, ref_pooled)
    np.testing.assert_array_equal(pmask, ref_pmask)
    # counts are sums of exact small integers: order-invariant, equal to
    # the reduceat formulation bit for bit
    assert_bits(
        pcounts, np.add.reduceat(ref_pmask.astype(np.float64), starts, axis=0)
    )
    return mp, pooled, pmask, pcounts


class TestSegSum:
    """``pool_fwd`` on sum-sensitive inputs: every ``pairwise_rows``
    branch, signed zeros and NaNs."""

    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_matches_add_reduceat_across_branches(self, k):
        check_pool_fwd(SEG_LENGTHS, wild((sum(SEG_LENGTHS), k)))

    def test_single_segment_row(self):
        x = wild((1, 3))
        # length-1 segment: the row itself, no identity
        assert_bits(check_pool_fwd([1], x)[0], x)

    def test_negative_zero_rows_sum_to_negative_zero(self):
        # -0.0 + -0.0 = -0.0: a zero-identity seeded accumulator would
        # produce +0.0 and betray itself here
        for n in (2, 7, 9, 129):
            mp = check_pool_fwd([n], np.full((n, 2), -0.0))[0]
            assert np.signbit(mp).all()

    def test_nan_propagates(self):
        x = wild((308, 4))
        x[3, 1] = np.nan
        x[200, 2] = np.nan
        check_pool_fwd([8, 300], x)


class TestSegMax:
    """``pool_fwd`` on max-sensitive inputs: ``np.maximum``'s tie and NaN
    rules."""

    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_matches_maximum_reduceat(self, k):
        x = wild((sum(SEG_LENGTHS), k))
        x[1, 0] = x[2, 0] = 1e30  # duplicate maxima inside one segment
        check_pool_fwd(SEG_LENGTHS, x)

    def test_ties_and_signed_zeros(self):
        x = np.array(
            [
                [1.0, -0.0], [1.0, 0.0], [0.5, -0.0], [1.0, 0.0],   # dup max, ±0
                [-0.0, 3.0], [0.0, 3.0], [-0.0, 2.0], [-0.0, 3.0],
            ]
        )
        check_pool_fwd([4, 4], x)

    def test_nan_wins_from_either_side(self):
        x = wild((6, 2))
        x[0, 0] = np.nan  # NaN in the accumulator seed
        x[5, 1] = np.nan  # NaN arriving into a finite accumulator
        out = check_pool_fwd([3, 3], x)[1]
        assert np.isnan(out[0, 0]) and np.isnan(out[1, 1])


def _random_csr(rows, cols, density=0.3):
    dense = wild((rows, cols))
    dense[RNG.random((rows, cols)) >= density] = 0.0
    if rows > 2:
        dense[1, :] = 0.0  # guarantee at least one empty row (zero-output path)
    return sp.csr_matrix(dense)


def _as_i64(csr):
    return csr.indptr.astype(np.int64), csr.indices.astype(np.int64)


class TestSpmm:
    def test_i32_matches_scipy(self):
        csr = _random_csr(37, 29)
        x = wild((29, 8))
        out = np.empty((37, 8))
        assert csr.indptr.dtype == np.int32
        LIB.spmm(csr.indptr, csr.indices, csr.data, x, out)
        assert_bits(out, csr @ x)

    def test_i64_matches_scipy(self):
        csr = _random_csr(23, 31)
        indptr, indices = _as_i64(csr)
        x = wild((31, 5))
        out = np.empty((23, 5))
        LIB.spmm(indptr, indices, csr.data, x, out)
        assert_bits(out, csr @ x)

    def test_dense_row_accumulation_order(self):
        # a fully dense row: any accumulation-order deviation from scipy's
        # sequential index-order loop shows up in the low bits
        csr = sp.csr_matrix(wild((6, 40)))
        x = wild((40, 3))
        out = np.empty((6, 3))
        LIB.spmm(csr.indptr, csr.indices, csr.data, x, out)
        assert_bits(out, csr @ x)


class TestSpmmBiasRelu:
    def _reference(self, csr, bias, x):
        t = csr @ x
        np.add(t, bias, out=t)
        mask = t > 0.0
        return np.fmax(t, 0.0), mask

    @pytest.mark.parametrize("index_dtype", ["i32", "i64"])
    def test_matches_numpy_sequence(self, index_dtype):
        csr = _random_csr(30, 24)
        bias = wild((6,))
        x = wild((24, 6))
        h = np.empty((30, 6))
        mask = np.empty((30, 6), dtype=np.bool_)
        if index_dtype == "i32":
            LIB.spmm_bias_relu(csr.indptr, csr.indices, csr.data, bias, x, h, mask)
        else:
            indptr, indices = _as_i64(csr)
            LIB.spmm_bias_relu(indptr, indices, csr.data, bias, x, h, mask)
        ref_h, ref_mask = self._reference(csr, bias, x)
        assert_bits(h, ref_h)
        np.testing.assert_array_equal(mask, ref_mask)

    def test_exact_zero_and_nan_epilogue(self):
        # row 0: empty row + 0.0 bias → t = 0.0 (mask False, h = +0.0)
        # row 1: NaN reaches the relu → np.fmax maps it to 0.0, mask False
        csr = sp.csr_matrix(np.array([[0.0, 0.0], [2.0, 0.0]]))
        bias = np.array([0.0, -1.0])
        x = np.array([[np.nan, 0.5], [1.0, 1.0]])
        h = np.empty((2, 2))
        mask = np.empty((2, 2), dtype=np.bool_)
        LIB.spmm_bias_relu(csr.indptr, csr.indices, csr.data, bias, x, h, mask)
        ref_h, ref_mask = self._reference(csr, bias, x)
        assert_bits(h, ref_h)
        np.testing.assert_array_equal(mask, ref_mask)
        assert h[1, 0] == 0.0 and not mask[1, 0]  # the NaN row


class TestPoolFwd:
    @pytest.mark.parametrize("lengths", [(1,), (3, 1, 5), SEG_LENGTHS])
    def test_matches_separate_kernels(self, lengths):
        h = wild((sum(lengths), 6))
        # plant duplicate maxima so tie counts exceed 1
        if len(h) >= 4:
            h[0, 0] = h[2, 0] = 1e30
        check_pool_fwd(lengths, h)

    def test_all_equal_segment_counts_every_row(self):
        _, _, pmask, pcounts = check_pool_fwd([5], np.full((5, 2), 3.25))
        assert pmask.all()
        assert_bits(pcounts, np.full((1, 2), 5.0))


class TestReluBwd:
    def test_matches_multiply_and_axis0_sum(self):
        m, k = 37, 8
        g = wild((m, k))
        mask = RNG.random((m, k)) < 0.6
        ga = np.empty((m, k))
        bias_grad = np.empty(k)
        LIB.relu_bwd(g, mask, ga, bias_grad)
        ref_ga = np.multiply(g, mask)
        assert_bits(ga, ref_ga)
        assert_bits(bias_grad, np.sum(ref_ga, axis=0))

    def test_masked_negative_grads_leave_negative_zero(self):
        # g * False is g * 0.0: numpy keeps the product's sign, so a
        # masked-out negative gradient must appear as -0.0, not +0.0
        g = np.array([[-2.0, 2.0]])
        mask = np.array([[False, False]])
        ga = np.empty((1, 2))
        bias_grad = np.empty(2)
        LIB.relu_bwd(g, mask, ga, bias_grad)
        assert_bits(ga, np.multiply(g, mask))
        assert np.signbit(ga[0, 0]) and not np.signbit(ga[0, 1])


class TestMaxpoolTail:
    """``pool_fwd``'s tie pass on duplicate rows."""

    def test_matches_equal_gather_and_count(self):
        h = wild((12, 5))
        h[0] = h[2]  # duplicate rows → ties inside segment 0
        check_pool_fwd((4, 1, 7), h)


class TestGhAccum:
    def test_matches_tape_accumulation_order(self):
        lengths = (3, 1, 6, 2)
        starts, m = seg_starts(lengths)
        nseg = len(lengths)
        gids = np.repeat(np.arange(nseg), lengths)
        k = 4
        gmp_div = wild((nseg, k))
        gpool_div = wild((nseg, k))
        pmask = RNG.random((m, k)) < 0.5
        ready_rows = np.array([0, 4, 9], dtype=np.int64)
        gready = wild((len(ready_rows), k))
        ready_inv = np.full(m, -1, dtype=np.int64)
        ready_inv[ready_rows] = np.arange(len(ready_rows))
        gh = np.empty((m, k))
        LIB.gh_accum(gids, ready_inv, gmp_div, gpool_div, pmask, gready, gh)
        # the tape's order: mean-pool gather, then the masked max-pool
        # gather added in full, then the ready-row scatter added in full
        ref = gmp_div[gids].copy()
        ref += np.where(pmask, gpool_div[gids], 0.0)
        scat = np.zeros((m, k))
        scat[ready_rows] = gready
        ref += scat
        assert_bits(gh, ref)

    def test_no_ready_rows_and_signed_zero_adds(self):
        # v + 0.0 normalises -0.0 to +0.0 — the dense formulation's "+ 0"
        # adds are part of the contract, so a fully-masked-out -0.0 input
        # must still normalise exactly as numpy's where/add chain does
        gids = np.zeros(2, dtype=np.int64)
        ready_inv = np.full(2, -1, dtype=np.int64)
        gmp_div = np.array([[-0.0, 1.0]])
        gpool_div = np.array([[5.0, -0.0]])
        pmask = np.array([[False, True], [True, False]])
        gready = np.empty((0, 2))
        gh = np.empty((2, 2))
        LIB.gh_accum(gids, ready_inv, gmp_div, gpool_div, pmask, gready, gh)
        ref = gmp_div[gids] + np.where(pmask, gpool_div[gids], 0.0)
        ref = ref + np.zeros((2, 2))
        assert_bits(gh, ref)


class TestLoader:
    def test_max_width_matches_c_accumulators(self):
        # pairwise_rows carries 64-wide stack accumulators; the python-side
        # constant must agree or pool_fwd would scribble the C stack
        assert fusion.MAX_WIDTH == 64

    def test_repro_no_fusion_disables_load(self):
        # process-global resolution: check the kill switch in a subprocess
        code = (
            "import os; os.environ['REPRO_NO_FUSION'] = '1';\n"
            "from repro.nn import fusion;\n"
            "assert fusion.load() is None;\n"
            "assert fusion.load() is None  # sticky for the process\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_load_is_idempotent(self):
        assert fusion.load() is LIB

    @pytest.mark.parametrize(
        "kernel", ["spmm_bias_relu", "pool_fwd", "relu_bwd", "spmm", "gh_accum"]
    )
    def test_a_kernel_off_by_one_bit_fails_the_load(self, monkeypatch, kernel):
        """The fault drill for a stale or corrupt cached ``.so``: any kernel
        of the training step that flips one output bit fails the load-time
        known-answer check, so ``load()`` hands out no core and training
        takes the NumPy kernels."""
        original = getattr(fusion.FusionLib, kernel)

        def off_by_one_bit(self, *args):
            original(self, *args)
            out = [a for a in args if a.dtype == np.float64][-1]
            out.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)

        monkeypatch.setattr(fusion.FusionLib, kernel, off_by_one_bit)
        monkeypatch.setattr(fusion, "_LIB", None)
        assert fusion.load() is None
        assert fusion.load() is None  # sticky for the process
        monkeypatch.setattr(fusion.FusionLib, kernel, original)
        monkeypatch.setattr(fusion, "_LIB", None)
        assert fusion.load() is not None  # the intact core passes
