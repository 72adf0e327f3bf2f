/* Fusion core for the compiled training step (repro.nn.compile).
 *
 * Every routine is a bitwise mirror of the NumPy op sequence the autograd
 * tape executes: elementwise IEEE-754 arithmetic in the same per-element
 * expression order, sequential reductions where NumPy reduces sequentially,
 * and NumPy's exact pairwise-summation tree where it does not
 * (np.add.reduceat).  No transcendental functions live here (libm exp/log
 * may differ from NumPy's vectorized kernels); those stay in NumPy, as do
 * all BLAS matmuls.  Compile with -ffp-contract=off: a fused multiply-add
 * changes bits.
 *
 * repro.nn.fusion.load() runs every kernel on a fixed input against its
 * NumPy twin before handing the core out, so a deviation here leaves the
 * training step on its NumPy path rather than corrupting training.
 */

#include <math.h>
#include <stdint.h>

/* ------------------------------------------------------------------ *
 * pairwise row sums, the tail of np.add.reduceat(X, starts, axis=0)
 *
 * NumPy reduces each (segment, column) pair as
 *     first + pairwise_sum(rest)
 * where pairwise_sum uses an 8-accumulator unrolled block up to 128
 * elements and a halving recursion above, with no zero-identity in any
 * branch.  The row-vectorized form below keeps the per-column order
 * identical while streaming rows contiguously.
 * ------------------------------------------------------------------ */

static void pairwise_rows(const double *restrict X, int64_t k, int64_t lo, int64_t n,
                          double *restrict out) {
    /* out[c] = pairwise sum of X[lo:lo+n, c]; n >= 1 */
    if (n < 8) {
        const double *restrict row = X + lo * k;
        for (int64_t c = 0; c < k; c++) out[c] = row[c];
        for (int64_t i = 1; i < n; i++) {
            const double *restrict r = X + (lo + i) * k;
            for (int64_t c = 0; c < k; c++) out[c] += r[c];
        }
    } else if (n <= 128) {
        double acc[8][64];
        double stack_tail[64];
        /* k is the GCN hidden width (<= 64 in every shipped config); the
         * loader refuses to use the core for wider matrices. */
        for (int64_t j = 0; j < 8; j++) {
            const double *restrict r = X + (lo + j) * k;
            for (int64_t c = 0; c < k; c++) acc[j][c] = r[c];
        }
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            for (int64_t j = 0; j < 8; j++) {
                const double *restrict r = X + (lo + i + j) * k;
                for (int64_t c = 0; c < k; c++) acc[j][c] += r[c];
            }
        }
        for (int64_t c = 0; c < k; c++)
            stack_tail[c] = ((acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c])) +
                            ((acc[4][c] + acc[5][c]) + (acc[6][c] + acc[7][c]));
        for (; i < n; i++) {
            const double *restrict r = X + (lo + i) * k;
            for (int64_t c = 0; c < k; c++) stack_tail[c] += r[c];
        }
        for (int64_t c = 0; c < k; c++) out[c] = stack_tail[c];
    } else {
        double right[64];
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        pairwise_rows(X, k, lo, n2, out);
        pairwise_rows(X, k, lo + n2, n - n2, right);
        for (int64_t c = 0; c < k; c++) out[c] += right[c];
    }
}

/* CSR @ X, the scipy csr_matvecs loop: rows in order, nonzeros in index
 * order, output zeroed first.  One variant per index dtype. */
void spmm_i32(int64_t m, int64_t k, const int32_t *restrict indptr,
              const int32_t *restrict indices, const double *restrict data, const double *restrict X,
              double *restrict Y) {
    for (int64_t i = 0; i < m; i++) {
        double *restrict y = Y + i * k;
        for (int64_t c = 0; c < k; c++) y[c] = 0.0;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            double a = data[jj];
            const double *restrict x = X + (int64_t)indices[jj] * k;
            for (int64_t c = 0; c < k; c++) y[c] += a * x[c];
        }
    }
}

void spmm_i64(int64_t m, int64_t k, const int64_t *restrict indptr,
              const int64_t *restrict indices, const double *restrict data, const double *restrict X,
              double *restrict Y) {
    for (int64_t i = 0; i < m; i++) {
        double *restrict y = Y + i * k;
        for (int64_t c = 0; c < k; c++) y[c] = 0.0;
        for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            double a = data[jj];
            const double *restrict x = X + indices[jj] * k;
            for (int64_t c = 0; c < k; c++) y[c] += a * x[c];
        }
    }
}

/* spmm with the bias+relu epilogue applied while the output row is still
 * in cache: H = fmax(csr @ X + bias, 0), mask = (csr @ X + bias) > 0.
 * Per element this is the accumulate-then-add-then-compare-then-fmax
 * sequence of the separate kernels — only the memory traffic changes. */
void spmm_bias_relu_i32(int64_t m, int64_t k, const int32_t *restrict indptr,
                        const int32_t *restrict indices, const double *restrict data,
                        const double *restrict bias, const double *restrict X, double *restrict H,
                        uint8_t *restrict mask) {
    for (int64_t i = 0; i < m; i++) {
        double *restrict y = H + i * k;
        uint8_t *restrict mk = mask + i * k;
        for (int64_t c = 0; c < k; c++) y[c] = 0.0;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            double a = data[jj];
            const double *restrict x = X + (int64_t)indices[jj] * k;
            for (int64_t c = 0; c < k; c++) y[c] += a * x[c];
        }
        for (int64_t c = 0; c < k; c++) {
            double t = y[c] + bias[c];
            mk[c] = t > 0.0;
            /* np.fmax(t, 0.0) keeps the first operand on ties (so -0.0
             * survives) and replaces NaN by 0.0: exactly t >= 0 ? t : 0,
             * which vectorizes where a libm fmax call cannot */
            y[c] = t >= 0.0 ? t : 0.0;
        }
    }
}

void spmm_bias_relu_i64(int64_t m, int64_t k, const int64_t *restrict indptr,
                        const int64_t *restrict indices, const double *restrict data,
                        const double *restrict bias, const double *restrict X, double *restrict H,
                        uint8_t *restrict mask) {
    for (int64_t i = 0; i < m; i++) {
        double *restrict y = H + i * k;
        uint8_t *restrict mk = mask + i * k;
        for (int64_t c = 0; c < k; c++) y[c] = 0.0;
        for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            double a = data[jj];
            const double *restrict x = X + indices[jj] * k;
            for (int64_t c = 0; c < k; c++) y[c] += a * x[c];
        }
        for (int64_t c = 0; c < k; c++) {
            double t = y[c] + bias[c];
            mk[c] = t > 0.0;
            /* np.fmax(t, 0.0) keeps the first operand on ties (so -0.0
             * survives) and replaces NaN by 0.0: exactly t >= 0 ? t : 0,
             * which vectorizes where a libm fmax call cannot */
            y[c] = t >= 0.0 ? t : 0.0;
        }
    }
}

/* ReLU backward fused with the bias gradient: ga = g * mask and
 * bias_grad = ga.sum(axis=0) (NumPy sums the outer axis sequentially
 * from a zero accumulator). */
void relu_bwd(int64_t m, int64_t k, const double *restrict g, const uint8_t *restrict mask,
              double *restrict ga, double *restrict bias_grad) {
    for (int64_t c = 0; c < k; c++) bias_grad[c] = 0.0;
    for (int64_t i = 0; i < m; i++) {
        const double *restrict gr = g + i * k;
        const uint8_t *restrict mk = mask + i * k;
        double *restrict o = ga + i * k;
        for (int64_t c = 0; c < k; c++) {
            double v = gr[c] * (double)mk[c];
            o[c] = v;
            bias_grad[c] += v;
        }
    }
}

/* Both pooling heads plus the tie mask/counts in one sweep: the segment's
 * rows stay cached between the sum, the max and the tie pass, so h is read
 * from memory once instead of three times.
 *   mp     = np.add.reduceat(h, starts, axis=0): per (segment, column)
 *            first + pairwise_rows(rest), NumPy's summation tree
 *   pooled = np.maximum.reduceat(h, starts, axis=0): sequential, NumPy's
 *            tie rule (keep the accumulator when strictly greater or NaN)
 *   pmask  = (h == pooled[gid]); counts = segment sum of the 0/1 mask, whose
 *            order is free (sums of small integers are exact in float64) */
void pool_fwd(int64_t nseg, int64_t m, int64_t k, const int64_t *restrict starts,
              const double *restrict h, double *restrict mp, double *restrict pooled, uint8_t *restrict pmask,
              double *restrict counts) {
    double rest[64];
    for (int64_t s = 0; s < nseg; s++) {
        int64_t lo = starts[s];
        int64_t hi = (s + 1 < nseg) ? starts[s + 1] : m;
        const double *restrict row = h + lo * k;
        double *restrict sum = mp + s * k;
        double *restrict mx = pooled + s * k;
        double *restrict cnt = counts + s * k;
        for (int64_t c = 0; c < k; c++) sum[c] = row[c];
        if (hi - lo > 1) {
            pairwise_rows(h, k, lo + 1, hi - lo - 1, rest);
            for (int64_t c = 0; c < k; c++) sum[c] += rest[c];
        }
        for (int64_t c = 0; c < k; c++) mx[c] = row[c];
        for (int64_t i = lo + 1; i < hi; i++) {
            const double *restrict r = h + i * k;
            for (int64_t c = 0; c < k; c++) {
                double acc = mx[c], x = r[c];
                mx[c] = (acc > x || isnan(acc)) ? acc : x;
            }
        }
        for (int64_t c = 0; c < k; c++) cnt[c] = 0.0;
        for (int64_t i = lo; i < hi; i++) {
            const double *restrict r = h + i * k;
            uint8_t *restrict mk = pmask + i * k;
            for (int64_t c = 0; c < k; c++) {
                uint8_t eq = r[c] == mx[c];
                mk[c] = eq;
                cnt[c] += (double)eq;
            }
        }
    }
}

/* The full node-embedding gradient in one pass, in the tape's
 * accumulation order:
 *   gh = gather(gmp_div)            (mean-pool path, stored by reference)
 *   gh = gh + where(pmask, gather(gpool_div), 0)   (max-pool path)
 *   gh += scatter(gready)           (ready-row task-head path)
 * ready_inv maps node row -> row of gready, -1 elsewhere; the +0.0 adds
 * of the dense formulation are preserved so -0.0 normalisation matches. */
void gh_accum(int64_t m, int64_t k, const int64_t *restrict gids,
              const int64_t *restrict ready_inv, const double *restrict gmp_div,
              const double *restrict gpool_div, const uint8_t *restrict pmask,
              const double *restrict gready, double *restrict gh) {
    for (int64_t i = 0; i < m; i++) {
        const double *restrict a = gmp_div + gids[i] * k;
        const double *restrict b = gpool_div + gids[i] * k;
        const uint8_t *restrict mk = pmask + i * k;
        double *restrict o = gh + i * k;
        int64_t rr = ready_inv[i];
        const double *restrict rd = (rr >= 0) ? gready + rr * k : 0;
        for (int64_t c = 0; c < k; c++) {
            double v = a[c] + (mk[c] ? b[c] : 0.0);
            o[c] = v + (rd ? rd[c] : 0.0);
        }
    }
}
