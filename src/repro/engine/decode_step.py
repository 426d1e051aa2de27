"""Every block of a narrow DIP/DIP-CA decode step in one C call (``_decode_step.c``).

:func:`decode_step` serves :meth:`ContinuousBatch.step
<repro.engine.inference.ContinuousBatch.step>` for a batch built by
:meth:`~repro.engine.inference.ContinuousBatch.from_engine`.  One call of the
kernel runs, for each block in order, the compiled attention half
(:mod:`repro.nn.decode_attn`), the compiled DIP/DIP-CA MLP
(:mod:`repro.sparsity.decode_mlp`) and the residual add, where the per-layer
path makes two calls per block and the Python between them.  The embedding
lookup, the final RMSNorm and the lm_head stay in numpy, the head through
:meth:`CausalLM.logits_array <repro.nn.transformer.CausalLM.logits_array>`
as in :meth:`CausalLM.forward_array
<repro.nn.transformer.CausalLM.forward_array>`, so the logits are bit for
bit those of the per-layer path.

It serves a step exactly when the per-layer path would send every block's
attention half to the compiled decode attention and its MLP to the compiled
decode MLP (method exactly DIP or DIP-CA, SiLU, float64, rows x MLP density
<= 1, arrays the kernels can use, the kernel library built), and returns
``None`` otherwise, so the per-layer path runs.  The kernel is a function of
the one library that holds the other two (:data:`repro.utils.native.LIBRARY`),
so it loads exactly when they do.

Every check the per-layer bindings make runs for each block before the one
call, through the helpers they use: :func:`~repro.nn.decode_attn.slot_rows`
(slot range and distinctness, each layer's lengths against its RoPE table
and its cache), :func:`~repro.nn.decode_attn.bindings` (weights,
norms, RoPE tables and cache arrays, bound again when replaced) and
:func:`~repro.sparsity.decode_mlp.bound_layer` (the MLP weights and DIP-CA's
cache arrays).  So an error the per-layer path raises is raised before any
length, K/V entry or DIP-CA cache changes.  DIP-CA's caches,
``token_index`` and ``CacheHitStats`` advance as one per-layer call per
block advances them (:func:`~repro.sparsity.decode_mlp.advance`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.attention import KVCache
from repro.nn.decode_attn import bindings, slot_rows
from repro.nn.transformer import CausalLM
from repro.sparsity.base import SparsityMethod
from repro.sparsity.decode_mlp import advance, bound_layer
from repro.utils.native import CompiledKernel, address

DECODE_STEP = CompiledKernel("decode_step")


def decode_step(
    model: CausalLM, method: SparsityMethod, caches: Sequence[KVCache], slots: List[int], ids: np.ndarray
) -> Optional[np.ndarray]:
    """Next-token logits ``(len(slots), vocab)`` of ``model`` under
    ``method`` after token ``ids[i, 0]`` is appended to slot ``slots[i]`` of
    every layer's cache, or ``None`` when the per-layer path must run."""
    if len(caches) != len(model.blocks):
        return None
    batch = len(slots)
    mlps = []
    for block in model.blocks:  # first, so other methods never load a kernel
        layer = bound_layer(method, block.mlp, block.layer_index, batch)
        if layer is None:
            return None
        mlps.append(layer)
    kernel = DECODE_STEP.load()
    if kernel is None:
        return None
    x = model.embedding.forward_array(ids)  # (batch, 1, d_model)
    if x.dtype != np.float64:
        return None
    attentions, structs, rows, tops = [], [], [], []  # the bindings stay referenced through the call
    for block, cache, mlp in zip(model.blocks, caches, mlps):
        layer_rows, top = slot_rows(block, cache, slots)
        attention = bindings(block, cache)
        if attention is None:
            return None
        attentions.append(attention)
        structs += (attention[0][2], attention[1][2], mlp[0][3])
        rows += layer_rows
        tops.append(top)

    n_layers = len(tops)
    structs_array = np.array(structs, dtype=np.uintp)
    rows_array = np.array(rows, dtype=np.int64)
    hits = np.zeros(n_layers, dtype=np.int64)
    x = np.ascontiguousarray(x)
    done = kernel(address(structs_array), n_layers, batch, address(x), address(rows_array), address(hits))
    for layer_index, (cache, mlp, top, layer_hits) in enumerate(zip(caches, mlps, tops, hits.tolist())):
        if 2 * layer_index < done:
            cache.length = max(cache.length, top + 1)
        if 2 * layer_index + 1 < done:
            advance(method, mlp, batch, layer_hits)
    if done < 2 * n_layers:
        raise MemoryError("the one-call decode step could not allocate its scratch memory")
    return model.logits_array(x)[:, -1, :]
