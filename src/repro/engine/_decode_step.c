/* Every block of a DIP or DIP-CA decode step, and the head, in one call, at
   any width.

   decode_step is the compiled twin of CausalLM.forward_array after the
   embedding when each of B rows adds one token through ContinuousBatch's
   slot views under a DynamicInputPruning or CacheAwareDIP method.  For each
   layer l in order, on the hidden states x (B, d_model), it runs

     1. decode_attn (_decode_attn.c) with layer l's block, cache and rows
        (rows + 2 * B * l: each row's slot, then its write index, which is
        also its RoPE position), giving the residual h and the MLP input;
     2. decode_mlp (_decode_mlp.c) on that MLP input, which reads each
        kept weight row once for every row that kept it and writes hits[l];
     3. x = h + the MLP output, the add TransformerBlock.forward_array does;

   then decode_head (_decode_attn.c) on x, which writes logits (B, vocab).
   Every kernel is the one the per-layer calls run (decode_attn and
   decode_head serve ContinuousBatch.step's per-layer path too), included
   here, and the add rounds as numpy's does, so the logits are bit for bit
   those of the per-layer calls and the head.  The caller checks every
   layer first.  Returns the parts run, 2 * n_layers + 1 when every layer
   and the head have run: a layer's attention half that cannot allocate its
   scratch memory leaves its layer unwritten, an MLP half leaves it after
   its attention, the head leaves the logits unwritten, and every earlier
   layer has run whole.

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

int64_t decode_step(const struct layer *layers, int64_t n_layers, int64_t B, double *x, const int64_t *rows,
                    int64_t *hits, const struct head *head, double *logits) {
    const int64_t n = B * layers[0].block->d_model;
    double *attended = malloc((size_t)(3 * n) * sizeof(double));
    if (attended == NULL) return 0;
    double *mlp_in = attended + n, *mlp_out = attended + 2 * n;
    int64_t done = 0;
    for (int64_t l = 0; l < n_layers; l++, rows += 2 * B) {
        if (decode_attn(layers[l].block, layers[l].cache, B, x, rows, attended) != 0) break;
        done++;
        hits[l] = decode_mlp(layers[l].mlp, B, mlp_in, mlp_out);
        if (hits[l] < 0) break;
        done++;
        for (int64_t i = 0; i < n; i++) x[i] = attended[i] + mlp_out[i];
    }
    free(attended);
    if (done == 2 * n_layers && decode_head(head, B, x, logits) == 0) done++;
    return done;
}
