/* The MLP half of a DIP or DIP-CA decode step, reading only the kept rows,
   once for every row of the step.

   decode_mlp is the compiled twin of what SparseInferenceEngine runs with
   numpy for DynamicInputPruning and CacheAwareDIP on a SiLU MLP
   (compute_masks, then sparse_forward).  The weights are unit-major
   (repro.nn.mlp): w_up and w_gate are (d_model, d_ffn), one row per input
   feature, and w_down is (d_ffn, d_model), one row per neuron.  For the B
   rows of x, ROW_BLOCK rows at a time, it

     1. runs ca_row (_ca_row.h) on each row of x, in row order, against the
        input group: |x|, Eq. 10 when gamma < 1, the top k, and for DIP-CA
        the hits, LFU counts and eviction on the input cache;
     2. sums up and gate over the union of the rows' kept inputs: each kept
        row of w_up and w_gate, in ascending order, is added whole into every
        row that kept it (add_kept_rows);
     3. forms each row's glu = up * SiLU(gate), with SiLU(a) = a / (1 +
        exp(-a)), the exponentials in one vectorised loop (exp_in_place,
        _vector.h), and runs ca_row on it against the down group, in row
        order;
     4. sums the MLP output over the union of the kept neurons' rows of
        w_down in the same way.

   So one pass over the kept weight rows serves every row of a block, where
   a row at a time would read them once per row; at one row it is the loop
   a row at a time has always run.  out is (B, d_model) and holds the MLP
   output without the residual.

   Every (row, column) sum still runs over that row's own kept units in
   ascending order, and a row never reads another row's results, so a row's
   numbers do not depend on B or its neighbours.  DIP-CA's caches see the
   rows in order too, since the input and down groups are separate caches.
   The outputs agree with numpy to rounding, not bit for bit: numpy sums in
   other orders, and its SiLU is (0.5 * (tanh(a / 2) + 1)) * a.  SiLU stays
   finite for any finite gate: exp_in_place saturates at exp(709) instead
   of overflowing.  repro.utils.native builds it with -ffp-contract=off and
   without -ffast-math; the loops are compiled once per vector width and
   picked at load time.  The caller checks every dtype, shape, k and cache
   array first.  Returns the hits over both groups and every row, or -1 when
   scratch memory cannot be allocated, before anything is written. */

#include <stdlib.h>

#include "../utils/_vector.h"
#include "_ca_row.h"

/* The rows one pass over the weights serves (at most 64: the rows that kept
   a unit are the bits of a uint64_t). */
enum { ROW_BLOCK = 8 };

/* One weight group: the units kept per row and, for DIP-CA, its LFU cache
   (cached == NULL for plain DIP). */
struct group {
    int64_t k, capacity;
    uint8_t *cached;
    int64_t *frequency;
};

struct mlp {
    int64_t d_model, d_ffn;
    double gamma;
    const double *w_up, *w_gate, *w_down;
    struct group input, down;
};

/* acc[b] += a[b][i] * w[i] (and acc2[b] += a[b][i] * w2[i] when w2 is not
   NULL) for each unit i, in ascending order, and each row b set in kept[i]:
   a is (rows, units) with rows a_stride apart, w and w2 are (units, n), acc
   and acc2 (rows, n).  Each kept weight row is read once for all the rows
   that kept it. */
INLINE void add_kept_rows(int64_t units, int64_t n, const double *a, int64_t a_stride, const uint64_t *kept,
                          const double *w, double *acc, const double *w2, double *acc2) {
    for (int64_t i = 0; i < units; i++) {
        const double *restrict wi = w + i * n;
        for (uint64_t bits = kept[i]; bits; bits &= bits - 1) {
            const int64_t b = __builtin_ctzll(bits);
            const double s = a[b * a_stride + i];
            double *restrict o = acc + b * n;
            if (w2 == NULL) {
                for (int64_t j = 0; j < n; j++) o[j] += s * wi[j];
                continue;
            }
            const double *restrict wi2 = w2 + i * n;
            double *restrict o2 = acc2 + b * n;
            for (int64_t j = 0; j < n; j++) {
                o[j] += s * wi[j];
                o2[j] += s * wi2[j];
            }
        }
    }
}

VECTOR_CLONES
int64_t decode_mlp(const struct mlp *m, int64_t B, const double *x, double *out) {
    const int64_t d = m->d_model, f = m->d_ffn, widest = d > f ? d : f, block = B < ROW_BLOCK ? B : ROW_BLOCK;
    double *scratch = malloc((size_t)(2 * widest + 2 * block * f) * sizeof(double) +
                             (size_t)(d + f) * sizeof(uint64_t) + (size_t)widest);
    if (scratch == NULL) return -1;
    double *up = scratch + 2 * widest, *gate = up + block * f;
    uint64_t *kept_in = (uint64_t *)(gate + block * f), *kept_down = kept_in + d;
    uint8_t *mask = (uint8_t *)(kept_down + f);
    const struct group *in = &m->input, *dn = &m->down;
    int64_t hits = 0;

    for (int64_t b0 = 0; b0 < B; b0 += block, x += block * d, out += block * d) {
        const int64_t rows = B - b0 < block ? B - b0 : block;
        memset(kept_in, 0, (size_t)d * sizeof(uint64_t));
        memset(kept_down, 0, (size_t)f * sizeof(uint64_t));
        for (int64_t b = 0; b < rows; b++) {
            hits += ca_row(x + b * d, d, in->k, m->gamma, in->capacity, in->cached, in->frequency, scratch, mask);
            for (int64_t i = 0; i < d; i++) kept_in[i] |= (uint64_t)mask[i] << b;
        }
        for (int64_t j = 0; j < rows * f; j++) up[j] = gate[j] = 0.0;
        add_kept_rows(d, f, x, d, kept_in, m->w_up, up, m->w_gate, gate);

        for (int64_t b = 0; b < rows; b++) {
            double *restrict u = up + b * f, *restrict g = gate + b * f, *restrict e = scratch; /* ca_row's scratch */
            for (int64_t j = 0; j < f; j++) e[j] = -g[j];
            exp_in_place(e, f);
            for (int64_t j = 0; j < f; j++) u[j] *= g[j] / (1.0 + e[j]);
            hits += ca_row(u, f, dn->k, m->gamma, dn->capacity, dn->cached, dn->frequency, scratch, mask);
            for (int64_t i = 0; i < f; i++) kept_down[i] |= (uint64_t)mask[i] << b;
        }
        for (int64_t j = 0; j < rows * d; j++) out[j] = 0.0;
        add_kept_rows(f, d, up, f, kept_down, m->w_down, out, NULL, NULL);
    }
    free(scratch);
    return hits;
}
