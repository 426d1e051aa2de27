"""Every block of a DIP/DIP-CA decode step, and the head, in one C call
(``_decode_step.c``), at any width.

:func:`decode_step` serves :meth:`ContinuousBatch.step
<repro.engine.inference.ContinuousBatch.step>` for a batch built by
:meth:`~repro.engine.inference.ContinuousBatch.from_engine`.  One call of the
kernel runs, for each block in order, the compiled attention half
(:mod:`repro.nn.decode_attn`), the compiled DIP/DIP-CA MLP
(:mod:`repro.sparsity.decode_mlp`) and the residual add, then the final
RMSNorm and the head (:func:`~repro.nn.decode_attn.decode_head`).  Its
logits are, bit for bit, those of the same kernels called one by one
(``decode_attention``, ``decode_mlp`` and the add per block, then
``decode_head``), without the Python between the calls.  The embedding
lookup stays in numpy, on ids :meth:`ContinuousBatch.step
<repro.engine.inference.ContinuousBatch.step>` has checked against the
vocabulary.

It serves a step exactly when every block's attention half, its MLP and
the head can run in those kernels (method exactly DIP or DIP-CA, SiLU,
float64, arrays the kernels can use, no ``lm_head`` bias, the kernel
library built), and returns ``None`` otherwise, so the per-layer path runs:
the compiled attention and head on the step's slot views, the MLP on numpy.
The compiled MLP reads each kept weight row once for all the step's rows,
so the width of a step does not decide which path runs.  The kernel is a
function of the one library that holds the others
(:data:`repro.utils.native.LIBRARY`), so it loads exactly when they do.

A :class:`StepBinding` holds every layer's bindings and the head's, made
through the per-layer helpers with every check they make:
:func:`~repro.nn.decode_attn.bindings` (weights, norms, RoPE tables and cache
arrays), :func:`~repro.sparsity.decode_mlp.bound_layer` (the MLP weights,
keep counts and DIP-CA's cache arrays) and
:func:`~repro.nn.decode_attn.head_binding`.  The batch keeps it
(``batch._bound``) between steps; each step gathers what it was made from
and compares it by identity, and binds again when an array or scalar has
been replaced (:func:`~repro.utils.native.current_binding`, the rule every
binding follows).  So a served step runs that one identity pass, one slot
check (:func:`~repro.nn.decode_attn.check_slots`), one length, RoPE and
overflow check per layer (:func:`~repro.nn.decode_attn.slot_positions`), the
call and one pass of DIP-CA bookkeeping
(:func:`~repro.sparsity.decode_mlp.advance`).  An error the per-layer path
raises is raised before any length, K/V entry or DIP-CA cache changes.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.attention import KVCache
from repro.nn.decode_attn import (
    BoundBlock,
    BoundCache,
    bindings,
    block_state,
    cache_state,
    check_slots,
    head_binding,
    head_state,
    slot_positions,
)
from repro.nn.transformer import CausalLM
from repro.sparsity.base import SparsityMethod
from repro.sparsity.decode_mlp import SERVED, BoundLayer, advance, bound_layer, layer_sources
from repro.utils.native import Binding, CompiledKernel, address, current_binding

if TYPE_CHECKING:  # repro.engine.inference imports this module
    from repro.engine.inference import ContinuousBatch

DECODE_STEP = CompiledKernel("decode_step")


def _sources(model: CausalLM, method: SparsityMethod, caches: Sequence[KVCache]) -> List[Any]:
    """Everything a :class:`StepBinding` is made from, in one list: each
    layer's block, cache and MLP sources, then the head's."""
    sources: List[Any] = []
    for block, cache in zip(model.blocks, caches):
        sources += block_state(block)
        sources += cache_state(cache)
        sources += layer_sources(method, block.mlp, block.layer_index)
    sources += head_state(model)
    return sources


class StepBinding(Binding):
    """The bindings one step's call reads, for every layer and the head.

    ``struct`` is the array the kernel takes: each layer's ``struct
    block``, ``struct cache`` and ``struct mlp`` addresses.  The bindings
    they belong to are held here (``layers``, ``head``), so those structs
    live as long as this one; ``mlps`` are the layers' MLP bindings in
    order.  ``rope_lens`` and ``batch_size`` are what the step's checks read:
    each block's RoPE table length and the fewest slots of any cache.
    """

    __slots__ = ("layers", "mlps", "head", "rope_lens", "batch_size")

    def __init__(
        self, sources: List[Any], layers: List[Tuple[BoundBlock, BoundCache, BoundLayer]], head: Binding
    ) -> None:
        addresses = [bound.address for layer in layers for bound in layer]
        super().__init__(sources, (ctypes.c_void_p * len(addresses))(*addresses))
        self.layers, self.head = layers, head
        self.mlps = [mlp for _, _, mlp in layers]
        self.rope_lens = [block.rope_len for block, _, _ in layers]
        self.batch_size = min(cache.batch_size for _, cache, _ in layers)


def _bind(
    sources: List[Any], model: CausalLM, method: SparsityMethod, caches: Sequence[KVCache]
) -> Optional[StepBinding]:
    """The :class:`StepBinding` made from ``sources`` (:func:`_sources`), or
    ``None`` when a layer or the head is one the per-layer path runs on
    numpy."""
    head = head_binding(model)
    if head is None:
        return None
    layers: List[Tuple[BoundBlock, BoundCache, BoundLayer]] = []
    for block, cache in zip(model.blocks, caches):
        mlp = bound_layer(method, block.mlp, block.layer_index)
        attention = bindings(block, cache)
        if mlp is None or attention is None:
            return None
        block_bound, cache_bound = attention
        if not block_bound.struct.d_model == mlp.struct.d_model == head.struct.d_model:
            return None
        layers.append((block_bound, cache_bound, mlp))
    return StepBinding(sources, layers, head)


def decode_step(
    method: SparsityMethod, batch: "ContinuousBatch", slots: List[int], ids: np.ndarray
) -> Optional[np.ndarray]:
    """Next-token logits ``(len(slots), vocab)`` of ``batch``'s model under
    ``method`` after token ``ids[i, 0]`` is appended to slot ``slots[i]`` of
    every layer's cache, or ``None`` when the per-layer path must run.  The
    step's binding is kept on the batch (``batch._bound``)."""
    model, caches, width = batch.model, batch.caches, len(slots)
    if type(method) not in SERVED or len(caches) != len(model.blocks):
        return None  # first, so other methods never load a kernel
    kernel = DECODE_STEP.load()
    if kernel is None:
        return None
    bound = current_binding(
        vars(batch),
        "_bound",
        _sources(model, method, caches),
        lambda sources: _bind(sources, model, method, caches),
    )
    if bound is None:
        return None

    check_slots(slots, bound.batch_size)
    rows: List[int] = []
    tops = []
    for cache, rope_len in zip(caches, bound.rope_lens):
        written, top = slot_positions(cache, slots, rope_len)
        rows += slots
        rows += written  # each row's write index, which is also its RoPE position
        tops.append(top)
    x = model.embedding.forward_array(ids)  # (width, 1, d_model)
    head = bound.head.struct
    if x.dtype != np.float64 or x.shape[-1] != head.d_model:
        return None
    n_layers = len(tops)
    hits = (ctypes.c_int64 * n_layers)()
    logits = np.empty((width, head.vocab))
    done = kernel(
        bound.address,
        n_layers,
        width,
        address(x),
        (ctypes.c_int64 * len(rows))(*rows),
        hits,
        bound.head.address,
        address(logits),
    )
    attended, mlps = min((done + 1) // 2, n_layers), min(done // 2, n_layers)  # the layers' halves that ran
    for cache, top in zip(caches[:attended], tops):
        if cache.length <= top:
            cache.length = top + 1
    advance(method, bound.mlps[:mlps], width, hits[:mlps])
    if done <= 2 * n_layers:
        raise MemoryError("the one-call decode step could not allocate its scratch memory")
    return logits
