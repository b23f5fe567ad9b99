/*
 * The three compiled entry points of the cc backend: repro_spmm,
 * repro_minhash and repro_cluster (the last two at the end of the file).
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
 * bits.  The file needs a C compiler, libc (repro_cluster's heap and
 * seen-pair set) and libm (its cosine's sqrt).
 */

#include <math.h>
#include <stdlib.h>

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

/*
 * Paper Alg. 3's merge loop, bit-equal to the reference loop of
 * repro.clustering.cluster_rows, whose docstring describes the algorithm.
 * The n_pairs candidates (pi[e], pj[e]) arrive sorted ascending by the
 * heap key (key[e], pi[e], pj[e]), key = -similarity.  Requeued pairs go
 * on a binary min-heap under the same key, and each step pops the
 * smaller of the stream head and the heap top, the stream on a tie, as
 * the reference does.  An open-addressing set holds every pair seen, so
 * a representative pair is requeued once; roots are found with path
 * halving, and a requeued pair is scored at once by merging the two
 * sorted CSR rows, with the formulas of the reference's _scalar_score
 * (sqrt is correctly rounded, every other step one IEEE operation).
 * parent (n_rows) receives the forest and counts[0..2] the merges,
 * retirements and requeues.  Returns CLUSTER_NOMEM when an allocation
 * fails, else CLUSTER_OK.  The caller guarantees pair ids in
 * [0, n_rows), a valid CSR structure with sorted, unique rows and
 * 1 <= threshold_size <= n_rows + 1.
 */
enum { CLUSTER_OK, CLUSTER_NOMEM };
/* In the order of repro.similarity.measures.MEASURES. */
enum { JACCARD, COSINE, OVERLAP, DICE };

typedef struct { double key; i64 a, b; } pair_t;

/* Python's tuple order on (key, a, b): -0.0 and 0.0 compare equal. */
static int pair_less(const pair_t *x, const pair_t *y)
{
    if (x->key != y->key)
        return x->key < y->key;
    return x->a != y->a ? x->a < y->a : x->b < y->b;
}

typedef struct { pair_t *items; i64 len, cap; } heap_t;

static int heap_push(heap_t *h, pair_t item)
{
    if (h->len == h->cap) {
        i64 cap = h->cap ? 2 * h->cap : 8;
        pair_t *items = realloc(h->items, (size_t)cap * sizeof *items);
        if (!items)
            return CLUSTER_NOMEM;
        h->items = items;
        h->cap = cap;
    }
    i64 k = h->len++;
    while (k > 0 && pair_less(&item, &h->items[(k - 1) / 2])) {
        h->items[k] = h->items[(k - 1) / 2];
        k = (k - 1) / 2;
    }
    h->items[k] = item;
    return CLUSTER_OK;
}

static pair_t heap_pop(heap_t *h)
{
    pair_t top = h->items[0], last = h->items[--h->len];
    i64 k = 0, n = h->len;
    for (;;) {
        i64 c = 2 * k + 1;
        if (c >= n)
            break;
        if (c + 1 < n && pair_less(&h->items[c + 1], &h->items[c]))
            c++;
        if (!pair_less(&h->items[c], &last))
            break;
        h->items[k] = h->items[c];
        k = c;
    }
    if (n)
        h->items[k] = last;
    return top;
}

/* Pairs (a, b), a <= b, in 2 * (mask + 1) slots; a = -1 marks a free one.
 * The table is sized for the stream and doubles before it is half full. */
typedef struct { i64 *slots; i64 mask, used; } seen_t;

static u64 pair_hash(i64 a, i64 b)
{
    u64 h = (u64)a * 0x9E3779B97F4A7C15ULL ^ (u64)b;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return h ^ (h >> 32);
}

static i64 *seen_slot(const seen_t *s, i64 a, i64 b)
{
    i64 *slot;
    for (u64 i = pair_hash(a, b);; i++) {
        slot = s->slots + 2 * (i & (u64)s->mask);
        if (slot[0] < 0 || (slot[0] == a && slot[1] == b))
            return slot;
    }
}

static int seen_alloc(seen_t *s, i64 capacity)
{
    s->slots = malloc((size_t)capacity * 2 * sizeof *s->slots);
    if (!s->slots)
        return CLUSTER_NOMEM;
    for (i64 k = 0; k < 2 * capacity; k++)
        s->slots[k] = -1;
    s->mask = capacity - 1;
    s->used = 0;
    return CLUSTER_OK;
}

/* Add (a, b): 1 if it is new, 0 if it was there, -1 if growth failed. */
static int seen_add(seen_t *s, i64 a, i64 b)
{
    i64 *slot = seen_slot(s, a, b);
    if (slot[0] >= 0)
        return 0;
    if (2 * (s->used + 1) > s->mask + 1) {
        seen_t grown;
        if (seen_alloc(&grown, 2 * (s->mask + 1)))
            return -1;
        for (i64 k = 0; k <= s->mask; k++) {
            const i64 *old = s->slots + 2 * k;
            if (old[0] >= 0) {
                i64 *to = seen_slot(&grown, old[0], old[1]);
                to[0] = old[0];
                to[1] = old[1];
            }
        }
        grown.used = s->used;
        free(s->slots);
        *s = grown;
        slot = seen_slot(s, a, b);
    }
    slot[0] = a;
    slot[1] = b;
    s->used++;
    return 1;
}

static double score(i64 measure, const i64 *rowptr, const i64 *colidx,
                    i64 a, i64 b)
{
    const i64 *p = colidx + rowptr[a], *pe = colidx + rowptr[a + 1];
    const i64 *q = colidx + rowptr[b], *qe = colidx + rowptr[b + 1];
    i64 la = pe - p, lb = qe - q, inter = 0, denom;
    while (p < pe && q < qe) {
        if (*p < *q) {
            p++;
        } else if (*q < *p) {
            q++;
        } else {
            inter++;
            p++;
            q++;
        }
    }
    switch (measure) {
    case JACCARD:
        denom = la + lb - inter;
        return denom ? (double)inter / (double)denom : 0.0;
    case COSINE: {
        double root = sqrt((double)la * (double)lb);
        return root != 0.0 ? (double)inter / root : 0.0;
    }
    case OVERLAP:
        denom = la <= lb ? la : lb;
        return denom ? (double)inter / (double)denom : 0.0;
    default: /* DICE */
        denom = la + lb;
        return denom ? (2.0 * (double)inter) / (double)denom : 0.0;
    }
}

/* The root of i, halving the path on the way (Alg. 3 lines 7-10). */
static i64 find_root(i64 *parent, i64 i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

int repro_cluster(i64 n_rows, i64 n_pairs, const double *key, const i64 *pi,
                  const i64 *pj, const i64 *rowptr, const i64 *colidx,
                  i64 threshold_size, i64 measure, i64 *parent, i64 *counts)
{
    int status = CLUSTER_NOMEM;
    i64 *size = malloc((size_t)(n_rows + 1) * sizeof *size);
    unsigned char *deleted = calloc((size_t)(n_rows + 1), 1);
    heap_t rq = {0};
    seen_t seen = {0};
    i64 capacity = 16;
    while (capacity < 2 * n_pairs)
        capacity *= 2;
    if (!size || !deleted || seen_alloc(&seen, capacity))
        goto done;
    for (i64 e = 0; e < n_pairs; e++) {
        i64 lo = pi[e] < pj[e] ? pi[e] : pj[e], hi = pi[e] < pj[e] ? pj[e] : pi[e];
        if (seen_add(&seen, lo, hi) < 0)
            goto done;
    }
    for (i64 r = 0; r < n_rows; r++) {
        parent[r] = r;
        size[r] = 1;
    }

    i64 live = n_rows, merges = 0, retired = 0, requeues = 0, spos = 0;
    while (live > 0 && (spos < n_pairs || rq.len)) {
        pair_t next;
        if (spos < n_pairs) {
            next = (pair_t){key[spos], pi[spos], pj[spos]};
            if (rq.len && pair_less(&rq.items[0], &next))
                next = heap_pop(&rq);
            else
                spos++;
        } else {
            next = heap_pop(&rq);
        }
        i64 i = next.a, j = next.b;
        if (parent[i] == i && parent[j] == j) {
            if (deleted[i] || deleted[j] || i == j)
                continue;
            /* The smaller cluster joins the larger; a tie keeps the
             * smaller row as the representative. */
            i64 si = size[i], sj = size[j];
            i64 child = (si < sj || (si == sj && j < i)) ? i : j;
            i64 root = child == i ? j : i;
            parent[child] = root;
            size[root] = si + sj;
            live--;
            merges++;
            if (si + sj >= threshold_size) {
                deleted[root] = 1;
                retired++;
                live--;
            }
            continue;
        }
        i64 ri = find_root(parent, i), rj = find_root(parent, j);
        if (deleted[ri] || deleted[rj] || ri == rj)
            continue;
        i64 a = ri < rj ? ri : rj, b = ri < rj ? rj : ri;
        int added = seen_add(&seen, a, b);
        if (added < 0)
            goto done;
        if (added) {
            pair_t item = {-score(measure, rowptr, colidx, a, b), a, b};
            if (heap_push(&rq, item))
                goto done;
            requeues++;
        }
    }
    counts[0] = merges;
    counts[1] = retired;
    counts[2] = requeues;
    status = CLUSTER_OK;
done:
    free(size);
    free(deleted);
    free(rq.items);
    free(seen.slots);
    return status;
}
