/*
 * The two compiled entry points of the cc backend: repro_spmm and
 * repro_minhash (at the end of the file).
 *
 * CSR SpMM in np.add.reduceat's summation order, one loop per row.
 *
 * Row i of the result is the sum of its products p[j] = values[j] *
 * X[colidx[j], :], added as np.add.reduceat adds them: the first product
 * plus numpy's pairwise_sum of the rest (see pairwise below).  Every
 * product is rounded before it is added, so the library must be built
 * with -ffp-contract=off: a fused multiply-add would round once and break
 * bit equality with repro.kernels.spmm.
 *
 * The columns are walked in blocks of KB so the accumulators of one block
 * stay in registers or L1; each k is independent, so blocking changes no
 * bits.  No headers: the file needs nothing but a C compiler.
 */

typedef long long i64;
typedef unsigned long long u64;

enum { KB = 64 };

/*
 * res[0:kb] = numpy's pairwise_sum over the n >= 1 products
 * v[j] * X[c[j] * K + k], k < kb:
 *   below 8 terms, sequential adds;
 *   up to 128 terms, eight interleaved accumulators combined as
 *   ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail one term at a time;
 *   above 128 terms, split at n/2 rounded down to a multiple of 8.
 */
static void pairwise(double *res, const double *v, const i64 *c, i64 n,
                     const double *X, i64 K, i64 kb)
{
    if (n < 8) {
        const double *x = X + c[0] * K;
        for (i64 k = 0; k < kb; k++)
            res[k] = v[0] * x[k];
        for (i64 j = 1; j < n; j++) {
            x = X + c[j] * K;
            for (i64 k = 0; k < kb; k++)
                res[k] += v[j] * x[k];
        }
        return;
    }
    if (n <= 128) {
        double r[8][KB];
        i64 m = n - n % 8, i;
        for (int a = 0; a < 8; a++) {
            const double *x = X + c[a] * K;
            for (i64 k = 0; k < kb; k++)
                r[a][k] = v[a] * x[k];
        }
        for (i = 8; i < m; i += 8) {
            for (int a = 0; a < 8; a++) {
                const double *x = X + c[i + a] * K;
                for (i64 k = 0; k < kb; k++)
                    r[a][k] += v[i + a] * x[k];
            }
        }
        for (i64 k = 0; k < kb; k++)
            res[k] = ((r[0][k] + r[1][k]) + (r[2][k] + r[3][k]))
                   + ((r[4][k] + r[5][k]) + (r[6][k] + r[7][k]));
        for (; i < n; i++) {
            const double *x = X + c[i] * K;
            for (i64 k = 0; k < kb; k++)
                res[k] += v[i] * x[k];
        }
        return;
    }
    i64 half = n / 2;
    half -= half % 8;
    double rest[KB];
    pairwise(res, v, c, half, X, K, kb);
    pairwise(rest, v + half, c + half, n - half, X, K, kb);
    for (i64 k = 0; k < kb; k++)
        res[k] += rest[k];
}

/*
 * out[row_order[i], :] = row i of the CSR matrix times X (row-major,
 * n_cols x K), for i < n_rows; out[i, :] when row_order is null.  Empty
 * rows are zeroed, so every written row is fully overwritten.  The caller
 * guarantees the index arrays are in range and row_order is a permutation.
 */
void repro_spmm(i64 n_rows, i64 K, const i64 *rowptr, const i64 *colidx,
                const double *values, const double *X, const i64 *row_order,
                double *out)
{
    double res[KB];
    for (i64 i = 0; i < n_rows; i++) {
        i64 lo = rowptr[i], L = rowptr[i + 1] - lo;
        const double *v = values + lo;
        const i64 *c = colidx + lo;
        double *y = out + (row_order ? row_order[i] : i) * K;
        if (L == 0) {
            for (i64 k = 0; k < K; k++)
                y[k] = 0.0;
            continue;
        }
        for (i64 k0 = 0; k0 < K; k0 += KB) {
            i64 kb = K - k0 < KB ? K - k0 : KB;
            const double *x0 = X + c[0] * K + k0;
            if (L == 1) {
                for (i64 k = 0; k < kb; k++)
                    y[k0 + k] = v[0] * x0[k];
                continue;
            }
            pairwise(res, v + 1, c + 1, L - 1, X + k0, K, kb);
            for (i64 k = 0; k < kb; k++)
                y[k0 + k] = v[0] * x0[k] + res[k];
        }
    }
}

/*
 * MinHash signatures, bit-equal to the numpy reference of
 * repro.similarity.minhash_signatures: out[i, k] is the minimum over the
 * columns c of row i of (a[k] * (c mod p) + b[k]) mod p, p = 2^31 - 1,
 * and p itself (EMPTY_ROW_SENTINEL) for an empty row.  With a[k] and b[k]
 * below p every h = a*c + b is below 2^62, so unsigned 64-bit arithmetic
 * is exact, and two Mersenne folds (2^31 = 1 mod p) plus one conditional
 * subtract reduce it.  One row at a time, with a running minimum per
 * hash function; out is n_rows x siglen, row-major.  The caller
 * guarantees a valid CSR structure with non-negative column ids.
 */
enum { MERSENNE_SHIFT = 31 };

static u64 mod_mersenne(u64 h)
{
    const u64 p = (1ULL << MERSENNE_SHIFT) - 1;
    h = (h & p) + (h >> MERSENNE_SHIFT);  /* < 2^32 */
    h = (h & p) + (h >> MERSENNE_SHIFT);  /* <= p + 1 */
    return h >= p ? h - p : h;
}

void repro_minhash(i64 n_rows, i64 siglen, const i64 *rowptr,
                   const i64 *colidx, const i64 *a, const i64 *b, i64 *out)
{
    const i64 p = (1LL << MERSENNE_SHIFT) - 1;
    for (i64 i = 0; i < n_rows; i++) {
        i64 *sig = out + i * siglen;
        for (i64 k = 0; k < siglen; k++)
            sig[k] = p;
        for (i64 j = rowptr[i]; j < rowptr[i + 1]; j++) {
            u64 c = (u64)(colidx[j] % p);
            for (i64 k = 0; k < siglen; k++) {
                i64 h = (i64)mod_mersenne((u64)a[k] * c + (u64)b[k]);
                sig[k] = h < sig[k] ? h : sig[k];
            }
        }
    }
}
