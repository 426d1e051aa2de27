/* The attention half of a TransformerBlock for one decode step, and the
   model's head.

   decode_attn is the compiled twin of what TransformerBlock.forward_array
   does with numpy when each of B rows adds one token through a slot view of
   a KV cache (ContinuousBatch.step):

     h      = x + O(attention(RoPE(Q n), RoPE(K n), V n)),  n = RMSNorm(x; attention_norm)
     mlp_in = RMSNorm(h; mlp_norm)

   For each row b, in order, with cache row s = rows[b] and write index
   w = rows[B + b], which is also its RoPE position, it

     1. normalises x[b] with attention_norm;
     2. forms q, k and v from the stored (out, in) weights, read in place;
     3. rotates q and k at position w;
     4. writes k and v at [s, :, w] of the cache and sets lengths[s] = w + 1;
     5. for each query head, takes a softmax over keys 0..w of its KV head:
        the scores less their largest, exponentiated in one vectorised loop
        (exp_in_place, _vector.h), then summed in key order;
     6. forms the context vector, its O projection and the residual h[b];
     7. normalises h[b] with mlp_norm into mlp_in[b].

   out holds h then mlp_in, each (B, d_model).  decode_head is the twin of
   CausalLM.logits_array on one position per row: the final RMSNorm of each
   row of x, then its logits against the (vocab, d_model) head weight (the
   tied embedding, or an lm_head without bias), read in place.

   A row never reads another row's results, and every sum runs in an order
   fixed by the geometry alone, so a row's numbers do not depend on B or its
   neighbours.  They agree with numpy to rounding, not bit for bit: numpy
   sums in other orders and its exp differs.  repro.utils.native builds them
   with -ffp-contract=off and without -ffast-math; the hot loops are
   compiled once per vector width and picked at load time.  The caller
   checks every dtype, shape and index first.  Both return 0, or -1 when
   scratch memory cannot be allocated, before anything is written. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "../utils/_vector.h"

struct block {
    int64_t d_model, n_heads, n_kv_heads, head_dim, rope_len;
    double attention_eps, mlp_eps, scale;
    const double *wq, *wk, *wv, *wo, *attention_norm, *mlp_norm, *cos, *sin;
};

struct cache {
    int64_t batch_size, max_seq_len;
    double *keys, *values;
    int64_t *lengths;
};

/* a . b with eight partial sums combined in a fixed order: vectorisable
   without -ffast-math, and the same bits at every vector width. */
INLINE double dot(const double *a, const double *b, int64_t n) {
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++) acc[j] += a[i + j] * b[i + j];
    double sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (; i < n; i++) sum += a[i] * b[i];
    return sum;
}

/* out = x / sqrt(mean(x^2) + eps) * weight, the order numpy's rmsnorm uses. */
INLINE void rmsnorm(const double *x, const double *weight, double eps, int64_t n, double *out) {
    double root = sqrt(dot(x, x, n) / (double)n + eps);
    for (int64_t i = 0; i < n; i++) out[i] = x[i] / root * weight[i];
}

/* out[b] = W x[b] for each of B rows of x, for a stored (rows, cols)
   weight: one pass over W serves every row, and each row's dot products are
   the ones it would get alone. */
INLINE void gemv(const double *w, const double *x, int64_t B, int64_t rows, int64_t cols, double *out) {
    for (int64_t r = 0; r < rows; r++, w += cols)
        for (int64_t b = 0; b < B; b++) out[b * rows + r] = dot(w, x + b * cols, cols);
}

/* Rotates each head's (even, odd) pairs by the angles of one position: the
   complex product numpy's RotaryEmbedding.rotate forms. */
INLINE void rope(double *v, int64_t heads, int64_t head_dim, const double *cos, const double *sin) {
    for (int64_t h = 0; h < heads; h++, v += head_dim)
        for (int64_t i = 0; i < head_dim / 2; i++) {
            double even = v[2 * i], odd = v[2 * i + 1];
            v[2 * i] = even * cos[i] - odd * sin[i];
            v[2 * i + 1] = even * sin[i] + odd * cos[i];
        }
}

VECTOR_CLONES
int64_t decode_attn(const struct block *blk, const struct cache *kv, int64_t B, const double *x,
                    const int64_t *rows, double *out) {
    const int64_t d = blk->d_model, hd = blk->head_dim, n_kv = blk->n_kv_heads, seq = kv->max_seq_len;
    const int64_t kv_dim = n_kv * hd, group = blk->n_heads / n_kv, half = hd / 2;
    double *scratch = malloc((size_t)(B * (3 * d + 2 * kv_dim) + seq) * sizeof(double));
    if (scratch == NULL) return -1;
    double *normed = scratch, *q = normed + B * d, *k = q + B * d, *v = k + B * kv_dim;
    double *context = v + B * kv_dim, *score = context + B * d, *h = out, *mlp_in = out + B * d;

    for (int64_t b = 0; b < B; b++) rmsnorm(x + b * d, blk->attention_norm, blk->attention_eps, d, normed + b * d);
    gemv(blk->wq, normed, B, d, d, q);
    gemv(blk->wk, normed, B, kv_dim, d, k);
    gemv(blk->wv, normed, B, kv_dim, d, v);
    for (int64_t b = 0; b < B; b++) {
        const int64_t s = rows[b], w = rows[B + b];
        double *qb = q + b * d, *kb = k + b * kv_dim, *vb = v + b * kv_dim, *cb = context + b * d;
        rope(qb, blk->n_heads, hd, blk->cos + w * half, blk->sin + w * half);
        rope(kb, n_kv, hd, blk->cos + w * half, blk->sin + w * half);

        double *keys = kv->keys + s * n_kv * seq * hd, *values = kv->values + s * n_kv * seq * hd;
        for (int64_t g = 0; g < n_kv; g++)
            for (int64_t i = 0; i < hd; i++) {
                keys[(g * seq + w) * hd + i] = kb[g * hd + i];
                values[(g * seq + w) * hd + i] = vb[g * hd + i];
            }
        kv->lengths[s] = w + 1;

        for (int64_t head = 0; head < blk->n_heads; head++) {
            const double *qh = qb + head * hd;
            const double *kh = keys + (head / group) * seq * hd, *vh = values + (head / group) * seq * hd;
            double *ch = cb + head * hd, top = -INFINITY, total = 0.0;
            for (int64_t j = 0; j <= w; j++) {
                score[j] = dot(qh, kh + j * hd, hd) * blk->scale;
                top = score[j] > top ? score[j] : top;
            }
            for (int64_t j = 0; j <= w; j++) score[j] -= top;
            exp_in_place(score, w + 1);
            for (int64_t j = 0; j <= w; j++) total += score[j];
            for (int64_t i = 0; i < hd; i++) ch[i] = 0.0;
            for (int64_t j = 0; j <= w; j++) {
                const double weight = score[j] / total;
                for (int64_t i = 0; i < hd; i++) ch[i] += weight * vh[j * hd + i];
            }
        }
    }
    gemv(blk->wo, context, B, d, d, h);
    for (int64_t b = 0; b < B; b++) {
        for (int64_t i = 0; i < d; i++) h[b * d + i] += x[b * d + i];
        rmsnorm(h + b * d, blk->mlp_norm, blk->mlp_eps, d, mlp_in + b * d);
    }
    free(scratch);
    return 0;
}

struct head {
    int64_t d_model, vocab;
    double eps;
    const double *norm, *weight;
};

VECTOR_CLONES
int64_t decode_head(const struct head *hd, int64_t B, const double *x, double *logits) {
    const int64_t d = hd->d_model;
    double *normed = malloc((size_t)(B * d) * sizeof(double));
    if (normed == NULL) return -1;
    for (int64_t b = 0; b < B; b++) rmsnorm(x + b * d, hd->norm, hd->eps, d, normed + b * d);
    gemv(hd->weight, normed, B, hd->vocab, d, logits);
    free(normed);
    return 0;
}
