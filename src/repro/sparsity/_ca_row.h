/* Algorithm 1's per-row step for one weight group, in C.

   ca_row is the one copy of the step that both compiled DIP kernels run:
   ca_step (_ca_step.c) for the rows of one weight group, and decode_mlp
   (_decode_mlp.c) for both groups of a decode step's MLP.  For one row v of
   n values it

     1. scores |v|, with Eq. 10 when gamma < 1: (cached ? m : m * gamma),
        divided by the row's largest |v| when that is positive;
     2. keeps the k largest scores; ties at the k-th score go to the lower
        index, the rule repro.sparsity.base.topk_mask uses too;
     3. counts hits against the units resident before the row, then adds
        the kept units to the LFU counts;
     4. applies _EvictingCache's over-capacity rule with the keys
        frequency * n + index: evict the least-used units not kept on this
        row or, when the kept units alone fill the cache, every other unit
        and the least-used kept ones; lower index first among equal counts.

   It writes the row's mask and returns its hits.  With cached == NULL (plain
   DIP) it runs step 2 on |v| only.  For finite rows it leaves the same mask
   and cache state as cache_aware_step, ties included; a row holding NaN
   gets an unspecified mask.  The kernels are built with -ffp-contract=off
   and without -ffast-math, so Eq. 10 rounds as numpy does.  The callers
   check every size, dtype and contiguity first. */

#ifndef REPRO_CA_ROW_H
#define REPRO_CA_ROW_H

#include <math.h>
#include <stdint.h>
#include <string.h>

/* The k-th largest of v[0, n), 1 <= k <= n; reorders v.  Quickselect with a
   median-of-three pivot and branch-free Lomuto partitions (larger values
   first).  Every pass shrinks the range, whatever the comparisons return. */
static double kth_largest(double *v, int64_t n, int64_t k) {
    int64_t lo = 0, hi = n - 1, target = k - 1;
    while (lo < hi) {
        int64_t store = lo;
        double t, a = v[lo], b = v[lo + (hi - lo) / 2], c = v[hi];
        if (b > a) t = a, a = b, b = t;
        if (c > a) c = a;
        double pivot = b > c ? b : c;
        for (int64_t j = lo; j <= hi; j++) {
            t = v[j], v[j] = v[store], v[store] = t;
            store += t > pivot;
        }
        if (target < store) {
            hi = store - 1;
        } else if (store > lo) {
            lo = store;
        } else {
            /* Nothing exceeds the pivot: move its copies to the front. */
            for (int64_t j = lo; j <= hi; j++) {
                t = v[j], v[j] = v[store], v[store] = t;
                store += !(t < pivot);
            }
            if (target < store) return pivot;
            lo = store;
        }
    }
    return v[target];
}

/* One row of Algorithm 1 against one LFU cache (cached, frequency, capacity
   units), or plain top-k when cached is NULL.  v: (n,) values; mask: (n,)
   output; scratch: 2 * n doubles. */
static int64_t ca_row(const double *v, int64_t n, int64_t k, double gamma, int64_t capacity, uint8_t *cached,
                      int64_t *frequency, double *scratch, uint8_t *mask) {
    double *score = scratch, *work = scratch + n;
    if (0 < k && k < n) {
        if (gamma < 1.0 && cached != NULL) {
            double norm = 0.0;
            for (int64_t i = 0; i < n; i++) norm = fabs(v[i]) > norm ? fabs(v[i]) : norm;
            for (int64_t i = 0; i < n; i++) {
                double m = cached[i] ? fabs(v[i]) : fabs(v[i]) * gamma;
                score[i] = work[i] = norm > 0.0 ? m / norm : m;
            }
        } else {
            for (int64_t i = 0; i < n; i++) score[i] = work[i] = fabs(v[i]);
        }
        double kth = kth_largest(work, n, k);
        int64_t ties = k;
        for (int64_t i = 0; i < n; i++) ties -= score[i] > kth;
        for (int64_t i = 0; i < n; i++) {
            int64_t tie = (score[i] == kth) & (ties > 0);
            mask[i] = (score[i] > kth) | tie;
            ties -= tie;
        }
    } else {
        memset(mask, k == n, (size_t)n);
    }
    if (cached == NULL) return 0;

    /* process_token; a nonzero resident byte counts as cached, as in numpy. */
    int64_t hits = 0, kept = 0, resident = 0, overflow, m = 0;
    for (int64_t i = 0; i < n; i++) {
        hits += mask[i] & (cached[i] != 0);
        kept += mask[i];
        frequency[i] += mask[i];
    }
    if (capacity == 0) return hits;
    uint8_t spare = kept < capacity;
    if (spare) {
        for (int64_t i = 0; i < n; i++) {
            cached[i] |= mask[i];
            resident += cached[i] != 0;
        }
        overflow = resident - capacity;
    } else {
        memcpy(cached, mask, (size_t)n);
        overflow = kept - capacity;
    }
    if (overflow <= 0) return hits;
    /* Evict the `overflow` least-used candidates, lower index first among
       equal counts: the resident units not kept on this row or, when the
       kept units fill the cache, the kept ones.  The least used have the
       largest -frequency; there are always more candidates than victims. */
    for (int64_t i = 0; i < n; i++) {
        work[m] = -(double)frequency[i];
        m += (cached[i] != 0) & !(spare & mask[i]);
    }
    int64_t least = (int64_t)-kth_largest(work, m, overflow), ties = overflow;
    for (int64_t i = 0; i < n; i++)
        ties -= (cached[i] != 0) & !(spare & mask[i]) & (frequency[i] < least);
    for (int64_t i = 0; i < n; i++) {
        int64_t candidate = (cached[i] != 0) & !(spare & mask[i]);
        int64_t tie = candidate & (frequency[i] == least) & (ties > 0);
        cached[i] = (cached[i] != 0) & !((candidate & (frequency[i] < least)) | tie);
        ties -= tie;
    }
    return hits;
}

#endif
