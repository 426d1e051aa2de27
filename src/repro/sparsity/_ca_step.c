/* Algorithm 1's per-token DIP-CA step over one LFU weight-group cache.

   ca_step is the compiled twin of the numpy loop CacheAwareDIP runs when no
   compiler is available: cache_aware_step on each row of one weight group,
   against a repro.hwsim.cache.LFUCache.  It runs _ca_row.h's ca_row on
   every row of x, in order, writes each row's mask and returns the total
   hits; the misses are T * k - hits.  The caller checks every size, dtype
   and contiguity first. */

#include "_ca_row.h"

/* x: (T, n) float64 rows; mask: (T, n) bool output; cached: (n,) bool and
   frequency: (n,) int64, updated in place; scratch: 2 * n doubles. */
int64_t ca_step(const double *x, int64_t T, int64_t n, int64_t k, double gamma, int64_t capacity,
                uint8_t *cached, int64_t *frequency, double *scratch, uint8_t *mask) {
    int64_t hits = 0;
    for (int64_t t = 0; t < T; t++, x += n, mask += n)
        hits += ca_row(x, n, k, gamma, capacity, cached, frequency, scratch, mask);
    return hits;
}
