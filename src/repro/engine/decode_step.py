"""Every block of a DIP/DIP-CA decode step, and the head, in one C call
(``_decode_step.c``), at any width.

:func:`decode_step` serves :meth:`ContinuousBatch.step
<repro.engine.inference.ContinuousBatch.step>` for a batch built by
:meth:`~repro.engine.inference.ContinuousBatch.from_engine`.  One call of the
kernel checks the step's slots, token ids and every layer's positions, looks
up the embedding, then runs, for each block in order, the compiled attention
half (:mod:`repro.nn.decode_attn`), the compiled DIP/DIP-CA MLP
(:mod:`repro.sparsity.decode_mlp`) and the residual add, then the final
RMSNorm and the head (:func:`~repro.nn.decode_attn.decode_head`).  Its
logits are, bit for bit, those of the same kernels called one by one
(``decode_attention``, ``decode_mlp`` and the add per block, then
``decode_head``), without the Python between the calls.

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
:func:`~repro.nn.decode_attn.head_binding`, with the embedding table and the
batch's occupied slots.  The batch keeps it (``batch._bound``) between
steps.  A step uses it while the process-wide version has not moved and the
method is the one it was made for, and binds again otherwise
(:func:`~repro.utils.native.current_binding`, the rule every binding
follows): every attribute, list item and dict item on the way from the
batch or the method to something the binding reads bumps the version when
it is replaced, and what the binding is made from (:func:`_sources`) is
gathered only when it is made.  So a served step runs that one version
check, the call and one pass of DIP-CA bookkeeping
(:func:`~repro.sparsity.decode_mlp.advance`).  The call checks
before it writes anything and returns a code for the first failure, which
is raised here as the per-layer path raises it, before any length, K/V
entry or DIP-CA cache changes.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, Any, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.nn.attention import KVCache
from repro.nn.decode_attn import bindings, block_state, cache_state, head_binding, head_state
from repro.nn.embedding import check_id_range
from repro.nn.transformer import CausalLM
from repro.sparsity.base import SparsityMethod
from repro.sparsity.decode_mlp import SERVED, BoundLayer, advance, bound_layer, layer_sources
from repro.utils.native import Binding, CompiledKernel, address, current_binding

if TYPE_CHECKING:  # repro.engine.inference imports this module
    from repro.engine.inference import ContinuousBatch

DECODE_STEP = CompiledKernel("decode_step")

_size, _pointer = ctypes.c_int64, ctypes.c_void_p

#: The kernel's refusals (``STEP_*`` in ``_decode_step.c``): a slot outside
#: the batch or given twice, a free slot, a token id outside the vocabulary,
#: a position past a layer's RoPE table, a full slot.
_BAD_SLOT, _FREE_SLOT, _BAD_ID, _PAST_ROPE, _FULL = -1, -2, -3, -4, -5


class _Step(ctypes.Structure):
    """``struct step``: one batch's layers, head, embedding and occupancy."""

    _fields_ = [(name, _size) for name in ("n_layers", "batch_size", "vocab")] + [
        (name, _pointer) for name in ("layers", "head", "embedding", "occupied")
    ]


def _sources(model: CausalLM, method: SparsityMethod, caches: Sequence[KVCache], occupied: np.ndarray) -> List[Any]:
    """Everything a :class:`StepBinding` is made from, in one list: each
    layer's block, cache and MLP sources, the head's, then the model's
    config and embedding table and the batch's occupancy array."""
    sources: List[Any] = []
    for block, cache in zip(model.blocks, caches):
        sources += block_state(block)
        sources += cache_state(cache)
        sources += layer_sources(method, block.mlp, block.layer_index)
    sources += head_state(model)
    sources += (model.config, model.embedding.weight.data, occupied)
    return sources


class StepBinding(Binding):
    """The bindings one step's call reads, for every layer and the head.

    ``struct`` is the ``struct step`` the kernel takes; its ``layers`` point
    at ``layer_structs``, each layer's ``struct block``, ``struct cache`` and
    ``struct mlp`` addresses.  The bindings they belong to are held here
    (``layers``, ``head``), so those structs live as long as this one;
    ``mlps`` are the layers' MLP bindings in order, and ``kernel`` the
    compiled step it was made for.
    """

    __slots__ = ("kernel", "layers", "layer_structs", "mlps", "head")

    def __init__(
        self,
        kernel: Any,
        sources: List[Any],
        layers: List[Tuple[Binding, Binding, BoundLayer]],
        head: Binding,
        batch_size: int,
        vocab: int,
        embedding: np.ndarray,
        occupied: np.ndarray,
    ) -> None:
        addresses = [bound.address for layer in layers for bound in layer]
        layer_structs = (ctypes.c_void_p * len(addresses))(*addresses)
        struct = _Step(
            len(layers),
            batch_size,
            vocab,
            ctypes.addressof(layer_structs),
            head.address,
            embedding.ctypes.data,
            occupied.ctypes.data,
        )
        super().__init__(sources, struct)
        self.kernel, self.layers, self.layer_structs, self.head = kernel, layers, layer_structs, head
        self.mlps = [mlp for _, _, mlp in layers]


def _bind(batch: "ContinuousBatch", method: SparsityMethod) -> Optional[StepBinding]:
    """The :class:`StepBinding` of ``batch`` under ``method``, made from
    :func:`_sources`, or ``None`` when a layer or the head is one the
    per-layer path runs on numpy (or without the kernel library)."""
    kernel = DECODE_STEP.load()
    if kernel is None:
        return None
    model, caches, occupied = batch.model, batch.caches, batch.occupied
    sources = _sources(model, method, caches, occupied)
    head = head_binding(model)
    if head is None or not caches or len(caches) != len(model.blocks):
        return None
    layers: List[Tuple[Binding, Binding, BoundLayer]] = []
    for block, cache in zip(model.blocks, caches):
        mlp = bound_layer(method, block.mlp, block.layer_index)
        attention = bindings(block, cache)
        if mlp is None or attention is None:
            return None
        block_bound, cache_bound = attention
        if not block_bound.struct.d_model == mlp.struct.d_model == head.struct.d_model:
            return None
        layers.append((block_bound, cache_bound, mlp))
    embedding, vocab = model.embedding.weight.data, model.config.vocab_size
    batch_size = min(cache.struct.batch_size for _, cache, _ in layers)  # the slots every cache holds
    if not (
        embedding.dtype == np.float64
        and embedding.shape == (vocab, head.struct.d_model)
        and embedding.flags.c_contiguous
        and occupied.dtype == np.bool_
        and occupied.shape == (batch_size,)
        and occupied.flags.c_contiguous
    ):
        return None
    return StepBinding(kernel, sources, layers, head, batch_size, vocab, embedding, occupied)


def _refuse(code: int, bound: StepBinding, batch: "ContinuousBatch", slots: List[int], ids: np.ndarray) -> NoReturn:
    """Raise what the per-layer path raises for the kernel's refusal ``code``."""
    if code == _BAD_SLOT:
        raise ValueError(f"slot indices must be distinct and lie in [0, {bound.struct.batch_size})")
    if code == _FREE_SLOT:
        raise ValueError(f"slot {next(slot for slot in slots if not batch.occupied[slot])} is not occupied")
    if code == _BAD_ID:
        check_id_range(int(ids.min()), int(ids.max()), bound.struct.vocab)
    if code == _PAST_ROPE:
        raise ValueError("position_ids exceed the RoPE table length")
    if code == _FULL:
        raise RuntimeError("KV cache overflow; evict finished slots or raise max_seq_len")
    raise RuntimeError(f"the one-call decode step refused the step with an unknown code {code}")


def decode_step(
    method: SparsityMethod, batch: "ContinuousBatch", slots: List[int], ids: np.ndarray
) -> Optional[np.ndarray]:
    """Next-token logits ``(len(slots), vocab)`` of ``batch``'s model under
    ``method`` after token ``ids[i, 0]`` is appended to slot ``slots[i]`` of
    every layer's cache, or ``None`` when the per-layer path must run.  The
    step's binding is kept on the batch (``batch._bound``)."""
    if type(method) not in SERVED:
        return None  # first, so other methods never load a kernel
    bound = current_binding(vars(batch), "_bound", (method,), lambda: _bind(batch, method))
    width = len(slots)
    if bound is None or ids.size != width:
        return None
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n_layers = len(bound.mlps)
    counts = (ctypes.c_int64 * (2 * n_layers))()  # each layer's hits, then its highest write index
    logits = np.empty((width, bound.head.struct.vocab))
    done = bound.kernel(bound.address, width, (ctypes.c_int64 * width)(*slots), address(ids), counts, address(logits))
    if done < 0:
        _refuse(done, bound, batch, slots, ids)
    attended, mlps = min((done + 1) // 2, n_layers), min(done // 2, n_layers)  # the layers' halves that ran
    for cache, top in zip(batch.caches[:attended], counts[n_layers : n_layers + attended]):
        if cache.length <= top:
            cache.length = top + 1
    advance(method, bound.mlps[:mlps], width, counts[:mlps])
    if done <= 2 * n_layers:
        raise MemoryError("the one-call decode step could not allocate its scratch memory")
    return logits
