/* The MLP half of a DIP or DIP-CA decode step, reading only the kept rows.

   decode_mlp is the compiled twin of what SparseInferenceEngine runs with
   numpy for DynamicInputPruning and CacheAwareDIP on a SiLU MLP
   (compute_masks, then sparse_forward).  The weights are unit-major
   (repro.nn.mlp): w_up and w_gate are (d_model, d_ffn), one row per input
   feature, and w_down is (d_ffn, d_model), one row per neuron.  For each of
   B rows of x, in order, it

     1. runs ca_row (_ca_row.h) on x against the input group: |x|, Eq. 10
        when gamma < 1, the top k, and for DIP-CA the hits, LFU counts and
        eviction on the input cache;
     2. sums up and gate over the kept rows of w_up and w_gate, in ascending
        row order;
     3. forms glu = up * SiLU(gate), with SiLU(a) = a / (1 + exp(-a)), the
        exponentials in one vectorised loop (exp_in_place, _vector.h);
     4. runs ca_row on glu against the down group;
     5. sums the MLP output over the kept rows of w_down, in ascending order.

   out is (B, d_model) and holds the MLP output without the residual.  A row
   never reads another row's results, and every sum runs in an order fixed
   by its masks alone, so a row's numbers do not depend on B or its
   neighbours.  They agree with numpy to rounding, not bit for bit: numpy
   sums in other orders, and its SiLU is (0.5 * (tanh(a / 2) + 1)) * a.  SiLU
   stays finite for any finite gate: exp_in_place saturates at exp(709)
   instead of overflowing.  repro.utils.native builds it with
   -ffp-contract=off and without -ffast-math; the row loops are compiled
   once per vector width and picked at load time.  The caller checks every
   dtype, shape, k and cache array first.  Returns the hits over both
   groups and every row, or -1 when scratch memory cannot be allocated,
   before anything is written. */

#include <stdlib.h>

#include "../utils/_vector.h"
#include "_ca_row.h"

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

VECTOR_CLONES
int64_t decode_mlp(const struct mlp *m, int64_t B, const double *x, double *out) {
    const int64_t d = m->d_model, f = m->d_ffn, widest = d > f ? d : f;
    double *scratch = malloc((size_t)(2 * widest + 2 * f) * sizeof(double) + (size_t)(d + f));
    if (scratch == NULL) return -1;
    double *restrict up = scratch + 2 * widest, *restrict gate = up + f;
    uint8_t *kept_in = (uint8_t *)(gate + f), *kept_down = kept_in + d;
    const struct group *in = &m->input, *dn = &m->down;
    int64_t hits = 0;

    for (int64_t b = 0; b < B; b++, x += d, out += d) {
        hits += ca_row(x, d, in->k, m->gamma, in->capacity, in->cached, in->frequency, scratch, kept_in);
        for (int64_t j = 0; j < f; j++) up[j] = gate[j] = 0.0;
        for (int64_t i = 0; i < d; i++) {
            if (!kept_in[i]) continue;
            const double a = x[i], *restrict wu = m->w_up + i * f, *restrict wg = m->w_gate + i * f;
            for (int64_t j = 0; j < f; j++) {
                up[j] += a * wu[j];
                gate[j] += a * wg[j];
            }
        }
        double *e = scratch; /* ca_row's scratch, free until the down mask */
        for (int64_t j = 0; j < f; j++) e[j] = -gate[j];
        exp_in_place(e, f);
        for (int64_t j = 0; j < f; j++) up[j] *= gate[j] / (1.0 + e[j]);

        hits += ca_row(up, f, dn->k, m->gamma, dn->capacity, dn->cached, dn->frequency, scratch, kept_down);
        double *restrict o = out;
        for (int64_t j = 0; j < d; j++) o[j] = 0.0;
        for (int64_t i = 0; i < f; i++) {
            if (!kept_down[i]) continue;
            const double a = up[i], *restrict wd = m->w_down + i * d;
            for (int64_t j = 0; j < d; j++) o[j] += a * wd[j];
        }
    }
    free(scratch);
    return hits;
}
