/* Every block of a DIP or DIP-CA decode step, and the head, in one call, at
   any width.

   decode_step is the compiled twin of CausalLM.forward_array when each of B
   rows adds one token through ContinuousBatch's slot views under a
   DynamicInputPruning or CacheAwareDIP method: row b appends token ids[b]
   to cache slot slots[b] of every layer.  First it checks everything it
   will index by, before it writes anything, and returns the first failure:

     STEP_BAD_SLOT   a slot outside [0, batch_size), or one given twice;
     STEP_FREE_SLOT  a slot the batch does not hold a sequence in;
     STEP_BAD_ID     a token id outside [0, vocab);
     STEP_PAST_ROPE  for some layer, a slot whose length (its write index
                     and RoPE position) lies past the layer's RoPE table;
     STEP_FULL       for some layer, a slot with no position left.

   Layers are checked in order, each for the RoPE table then for room, so a
   failure is the one the per-layer calls would meet first.  Then it copies
   each row's embedding, and for each layer l in order, on the hidden states
   x (B, d_model), it runs

     1. decode_attn (_decode_attn.c) with layer l's block and cache and
        rows: each row's slot, then its write index, read from layer l's
        lengths, giving the residual h and the MLP input;
     2. decode_mlp (_decode_mlp.c) on that MLP input, which reads each
        kept weight row once for every row that kept it and writes hits[l];
     3. x = h + the MLP output, the add TransformerBlock.forward_array does;

   then decode_head (_decode_attn.c) on x, which writes logits (B, vocab).
   counts holds hits (n_layers), then each layer's highest write index
   (n_layers), written by the checks.  Every kernel is the one the
   per-layer calls run (decode_attn and decode_head serve
   ContinuousBatch.step's per-layer path too), included here, the embedding
   is copied row by row, and the add rounds as numpy's does, so the logits
   are bit for bit those of the per-layer calls and the head.  Returns a
   negative code above, or the parts run, 2 * n_layers + 1 when every layer
   and the head have run: a step that cannot allocate its scratch memory
   runs nothing, a layer's attention half that cannot leaves its layer
   unwritten, an MLP half leaves it after its attention, the head leaves the
   logits unwritten, and every earlier layer has run whole.

   This file is also the one translation unit of the package's C kernels:
   with _ca_step.c included too, one compiler call builds ca_step,
   decode_attn, decode_head, decode_mlp and decode_step into one library
   (repro.utils.native), so they load all together or not at all. */

#include "../nn/_decode_attn.c"
#include "../sparsity/_ca_step.c"
#include "../sparsity/_decode_mlp.c"

/* One layer: the structs the two kernels take. */
struct layer {
    const struct block *block;
    const struct cache *cache;
    const struct mlp *mlp;
};

/* One batch's step: its layers, the head, the (vocab, d_model) embedding
   the ids are looked up in, and the batch_size slots and their occupancy
   every cache holds. */
struct step {
    int64_t n_layers, batch_size, vocab;
    const struct layer *layers;
    const struct head *head;
    const double *embedding;
    const uint8_t *occupied;
};

enum { STEP_BAD_SLOT = -1, STEP_FREE_SLOT = -2, STEP_BAD_ID = -3, STEP_PAST_ROPE = -4, STEP_FULL = -5 };

static int64_t check_step(const struct step *s, int64_t B, const int64_t *slots, const int64_t *ids, int64_t *tops) {
    for (int64_t b = 0; b < B; b++) {
        if (slots[b] < 0 || slots[b] >= s->batch_size) return STEP_BAD_SLOT;
        for (int64_t c = 0; c < b; c++)
            if (slots[c] == slots[b]) return STEP_BAD_SLOT;
    }
    for (int64_t b = 0; b < B; b++)
        if (!s->occupied[slots[b]]) return STEP_FREE_SLOT;
    for (int64_t b = 0; b < B; b++)
        if (ids[b] < 0 || ids[b] >= s->vocab) return STEP_BAD_ID;
    for (int64_t l = 0; l < s->n_layers; l++) {
        const struct cache *kv = s->layers[l].cache;
        int64_t top = 0, least = 0;
        for (int64_t b = 0; b < B; b++) {
            const int64_t w = kv->lengths[slots[b]];
            top = b == 0 || w > top ? w : top;
            least = b == 0 || w < least ? w : least;
        }
        if (least < 0 || top >= s->layers[l].block->rope_len) return STEP_PAST_ROPE;
        if (top + 1 > kv->max_seq_len) return STEP_FULL;
        tops[l] = top;
    }
    return 0;
}

int64_t decode_step(const struct step *s, int64_t B, const int64_t *slots, const int64_t *ids, int64_t *counts,
                    double *logits) {
    const int64_t n_layers = s->n_layers, d = s->head->d_model, n = B * d;
    const int64_t failed = check_step(s, B, slots, ids, counts + n_layers);
    if (failed != 0) return failed;
    double *x = malloc((size_t)(4 * n) * sizeof(double) + (size_t)(2 * B) * sizeof(int64_t));
    if (x == NULL) return 0;
    double *attended = x + n, *mlp_in = x + 2 * n, *mlp_out = x + 3 * n;
    int64_t *rows = (int64_t *)(x + 4 * n), done = 0;
    for (int64_t b = 0; b < B; b++) memcpy(x + b * d, s->embedding + ids[b] * d, (size_t)d * sizeof(double));
    for (int64_t l = 0; l < n_layers; l++) {
        const struct layer *layer = s->layers + l;
        for (int64_t b = 0; b < B; b++) rows[b] = slots[b], rows[B + b] = layer->cache->lengths[slots[b]];
        if (decode_attn(layer->block, layer->cache, B, x, rows, attended) != 0) break;
        done++;
        counts[l] = decode_mlp(layer->mlp, B, mlp_in, mlp_out);
        if (counts[l] < 0) break;
        done++;
        for (int64_t i = 0; i < n; i++) x[i] = attended[i] + mlp_out[i];
    }
    if (done == 2 * n_layers && decode_head(s->head, B, x, logits) == 0) done++;
    free(x);
    return done;
}
