/* Every block of a narrow DIP or DIP-CA decode step in one call.

   decode_step is the compiled twin of the block loop of
   CausalLM.forward_array when each of B rows adds one token through
   ContinuousBatch's slot views and a DynamicInputPruning or CacheAwareDIP
   method sends every layer's MLP to decode_mlp.  For each layer l in
   order, on the hidden states x (B, d_model), it runs

     1. decode_attn (_decode_attn.c) with layer l's block, cache and rows
        (rows + 3 * B * l: each row's slot, write index and RoPE position),
        giving the residual h and the MLP input;
     2. decode_mlp (_decode_mlp.c) on that MLP input, which writes
        hits[l];
     3. x = h + the MLP output, the add TransformerBlock.forward_array does.

   Both kernels are the ones the per-layer path calls, included here, and
   the add rounds as numpy's does, so x ends bit for bit where six
   per-layer calls leave it.  The caller checks every layer first.  Returns
   the halves run, 2 * n_layers when every layer has run: a layer's
   attention half that cannot allocate its scratch memory leaves its layer
   unwritten, an MLP half leaves it after its attention, and every earlier
   layer has run whole.

   This file is also the one translation unit of the package's C kernels:
   with _ca_step.c included too, one compiler call builds ca_step,
   decode_attn, decode_mlp and decode_step into one library
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
                    int64_t *hits) {
    const int64_t n = B * layers[0].block->d_model;
    double *attended = malloc((size_t)(3 * n) * sizeof(double));
    if (attended == NULL) return 0;
    double *mlp_in = attended + n, *mlp_out = attended + 2 * n;
    int64_t done = 0;
    for (int64_t l = 0; l < n_layers; l++, rows += 3 * B) {
        if (decode_attn(layers[l].block, layers[l].cache, B, x, rows, NULL, 0, attended) != 0) break;
        done++;
        hits[l] = decode_mlp(layers[l].mlp, B, mlp_in, mlp_out);
        if (hits[l] < 0) break;
        done++;
        for (int64_t i = 0; i < n; i++) x[i] = attended[i] + mlp_out[i];
    }
    free(attended);
    return done;
}
