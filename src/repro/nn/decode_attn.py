"""The attention half of a decode step, and the head, in C calls (``_decode_attn.c``).

:func:`decode_attention` serves :meth:`TransformerBlock.forward_array
<repro.nn.transformer.TransformerBlock.forward_array>` for the slot views of
a ``ContinuousBatch.step`` and nothing else: one new token per slot, each
slot written at and rotated by its own length, seeing keys ``0..length`` of
its own row.  One call of the kernel runs the attention norm, the Q/K/V
products on the stored weights, RoPE, the K/V write, the softmax over each
row's visible keys, the O projection with its residual and the MLP norm.
The MLP itself stays with the caller.

:func:`decode_head` serves :meth:`CausalLM.forward_array
<repro.nn.transformer.CausalLM.forward_array>` for the same steps: the final
RMSNorm, then the tied embedding or an ``lm_head`` without bias, in one call.
The one-call decode step (:mod:`repro.engine.decode_step`) runs the same
function after its last block, so both paths give the same logits.

Every other forward runs on numpy: prefill, the plain caches of
``CausalLM.generate`` (the oracle the tests compare against) and every call
the kernel cannot serve (no compiler, not float64, another shape, weights it
cannot read in place), for which both functions return ``None``.  Results
agree with numpy to rounding, not bit for bit.  Everything the kernel
indexes by is checked here first: a slot view's slots by :func:`check_slots`
and their positions by :func:`slot_positions`, the arrays by
:func:`bindings` and :func:`head_binding`, the helpers the one-call decode
step runs too.  Weight and cache addresses are bound once per block, cache
and model, with every dtype, shape and contiguity check made then; later
calls use a binding while the process-wide version has not moved, and bind
again once an array or scalar it reads has been replaced
(:func:`~repro.utils.native.current_binding`).  Bindings are never copied or
pickled.
"""

from __future__ import annotations

import ctypes
import operator
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.nn.attention import KVCache, KVCacheSlotView
from repro.utils.native import Binding, CompiledKernel, address, current_binding

if TYPE_CHECKING:
    from repro.nn.transformer import CausalLM, TransformerBlock

_size, _double, _pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class _Block(ctypes.Structure):
    """``struct block``: one block's geometry, the positions its RoPE
    tables hold (``rope_len``) and its weight addresses."""

    _fields_ = (
        [(name, _size) for name in ("d_model", "n_heads", "n_kv_heads", "head_dim", "rope_len")]
        + [(name, _double) for name in ("attention_eps", "mlp_eps", "scale")]
        + [(name, _pointer) for name in ("wq", "wk", "wv", "wo", "attention_norm", "mlp_norm", "cos", "sin")]
    )


class _Cache(ctypes.Structure):
    """``struct cache``: one KV cache's slots, positions per slot and array addresses."""

    _fields_ = [("batch_size", _size), ("max_seq_len", _size)] + [
        (name, _pointer) for name in ("keys", "values", "lengths")
    ]


class _Head(ctypes.Structure):
    """``struct head``: the final norm and the ``(vocab, d_model)`` head weight."""

    _fields_ = [("d_model", _size), ("vocab", _size), ("eps", _double), ("norm", _pointer), ("weight", _pointer)]


DECODE_ATTN = CompiledKernel("decode_attn")
DECODE_HEAD = CompiledKernel("decode_head")


def _fits(a: np.ndarray, shape: Tuple[int, ...], dtype: type = np.float64) -> bool:
    return a.dtype == dtype and a.shape == shape and a.flags.c_contiguous


#: Everything a block's binding reads, gathered when it is made.
block_state = operator.attrgetter(
    "attention.q_proj.weight.data",
    "attention.k_proj.weight.data",
    "attention.v_proj.weight.data",
    "attention.o_proj.weight.data",
    "attention_norm.weight.data",
    "mlp_norm.weight.data",
    "attention.rope.cos",
    "attention.rope.sin",
    "attention_norm.eps",
    "mlp_norm.eps",
    "attention.q_proj.bias",
    "attention.k_proj.bias",
    "attention.v_proj.bias",
    "attention.o_proj.bias",
    "attention.config",
)

#: The arrays a cache's binding reads, gathered when it is made.
cache_state = operator.attrgetter("keys", "values", "lengths")


def _bind_block(block: "TransformerBlock") -> Optional[Binding]:
    """The binding made from ``block``'s :data:`block_state`, its ``struct
    block``, or ``None`` if the kernel cannot read its weights."""
    state = block_state(block)
    wq, wk, wv, wo, attention_norm, mlp_norm, cos, sin, attention_eps, mlp_eps, *biases, cfg = state
    arrays, rope_len = (wq, wk, wv, wo, attention_norm, mlp_norm, cos, sin), block.attention.rope.max_seq_len
    d, kv_dim, table = cfg.d_model, cfg.n_kv_heads * cfg.head_dim, (rope_len, cfg.head_dim // 2)
    shapes = ((d, d), (kv_dim, d), (kv_dim, d), (d, d), (d,), (d,), table, table)
    if any(bias is not None for bias in biases) or not all(map(_fits, arrays, shapes)):
        return None
    struct = _Block(
        d,
        cfg.n_heads,
        cfg.n_kv_heads,
        cfg.head_dim,
        rope_len,
        attention_eps,
        mlp_eps,
        1.0 / np.sqrt(cfg.head_dim),
        *(a.ctypes.data for a in arrays),
    )
    return Binding(state, struct)


def _bind_cache(cache: KVCache) -> Optional[Binding]:
    """The binding made from ``cache``'s :data:`cache_state`, or ``None`` if
    the kernel cannot write it in place."""
    arrays = cache_state(cache)
    keys, values, lengths = arrays
    shape = (cache.batch_size, cache.n_kv_heads, cache.max_seq_len, cache.head_dim)
    if not (
        _fits(keys, shape)
        and _fits(values, shape)
        and _fits(lengths, (cache.batch_size,), np.int64)
        and all(a.flags.writeable for a in arrays)
    ):
        return None
    return Binding(arrays, _Cache(cache.batch_size, cache.max_seq_len, *(a.ctypes.data for a in arrays)))


def check_slots(slots: List[int], batch_size: int) -> None:
    """Raise ``ValueError``, as a slot view does, unless ``slots`` are
    distinct and lie in ``[0, batch_size)``."""
    if min(slots) < 0 or max(slots) >= batch_size or len(set(slots)) != len(slots):
        raise ValueError(f"slot indices must be distinct and lie in [0, {batch_size})")


def slot_positions(cache: KVCache, slots: List[int], rope_len: int) -> Tuple[List[int], int]:
    """Each slot's write index and RoPE position in ``cache`` (its length)
    and the longest, for slots :func:`check_slots` has passed.

    Raises as the numpy path would, before anything is written, for a length
    past the RoPE table of ``rope_len`` positions and a full slot.
    """
    lengths = cache.lengths.tolist()
    written = [lengths[slot] for slot in slots]
    top = max(written)
    if top >= rope_len or min(written) < 0:
        raise ValueError("position_ids exceed the RoPE table length")
    if top + 1 > cache.max_seq_len:
        raise RuntimeError("KV cache overflow")
    return written, top


def bindings(block: "TransformerBlock", cache: KVCache) -> Optional[Tuple[Binding, Binding]]:
    """The kernel's bindings of ``block`` and ``cache``, or ``None`` when it
    cannot read the weights or write the cache in place.  Each is held on
    its block or cache and made again once something it was made from has
    been replaced (:func:`~repro.utils.native.current_binding`)."""
    cfg = block.attention.config
    if cache.n_kv_heads != cfg.n_kv_heads or cache.head_dim != cfg.head_dim:
        return None
    bound = current_binding(vars(block), "_bound", (), lambda: _bind_block(block))
    if bound is None:
        return None
    held = current_binding(vars(cache), "_bound", (), lambda: _bind_cache(cache))
    return None if held is None else (bound, held)


def head_state(model: "CausalLM") -> tuple:
    """Everything the head's binding reads, gathered when it is made."""
    norm, head = model.final_norm, model.lm_head
    if head is None:
        return norm.weight.data, model.embedding.weight.data, norm.eps, None
    return norm.weight.data, head.weight.data, norm.eps, head.bias


def _bind_head(model: "CausalLM") -> Optional[Binding]:
    """The binding made from :func:`head_state`, its ``struct head``, or
    ``None`` if the kernel cannot serve the head."""
    state = head_state(model)
    norm, weight, eps, bias = state
    if bias is not None or norm.ndim != 1 or weight.ndim != 2:
        return None
    d_model, vocab = norm.shape[0], weight.shape[0]
    if not (_fits(norm, (d_model,)) and _fits(weight, (vocab, d_model))):
        return None
    return Binding(state, _Head(d_model, vocab, eps, norm.ctypes.data, weight.ctypes.data))


def head_binding(model: "CausalLM") -> Optional[Binding]:
    """The kernel's binding of ``model``'s final norm and head, or ``None``
    when it cannot read them in place (an ``lm_head`` with a bias, say);
    held on the model under the rule :func:`bindings` follows."""
    return current_binding(vars(model), "_bound", (), lambda: _bind_head(model))


def decode_head(model: "CausalLM", x: np.ndarray) -> Optional[np.ndarray]:
    """Logits ``(..., vocab)`` of ``model`` for the hidden states ``x``
    ``(..., d_model)`` of one position per row: the final RMSNorm, then the
    head.  ``None`` when the numpy path must run."""
    if x.dtype != np.float64 or x.size == 0:
        return None
    kernel = DECODE_HEAD.load()
    if kernel is None:
        return None
    bound = head_binding(model)
    if bound is None or x.shape[-1] != bound.struct.d_model:
        return None
    x = np.ascontiguousarray(x)
    out = np.empty(x.shape[:-1] + (bound.struct.vocab,))
    if kernel(bound.address, x.size // x.shape[-1], address(x), address(out)) != 0:
        raise MemoryError("the decode head could not allocate its scratch memory")
    return out


def decode_attention(
    block: "TransformerBlock", x: np.ndarray, kv_cache
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(residual, mlp_input)`` of ``block``'s attention half for one new
    token per slot of the slot view ``kv_cache``, or ``None`` when the numpy
    path must run (any other cache among them).

    ``x`` is ``(len(slots), 1, d_model)``; both outputs have its shape.  The
    K/V land in the view's cache and its slots' lengths advance, as
    :meth:`KVCacheSlotView.append` would.
    """
    if not isinstance(kv_cache, KVCacheSlotView) or x.ndim != 3 or x.shape[1] != 1 or x.dtype != np.float64:
        return None
    kernel = DECODE_ATTN.load()
    if kernel is None:
        return None
    cache, slots = kv_cache.cache, kv_cache.slots.tolist()
    if len(slots) != x.shape[0]:
        return None
    check_slots(slots, cache.batch_size)
    written, top = slot_positions(cache, slots, block.attention.rope.max_seq_len)
    bound = bindings(block, cache)
    if bound is None:
        return None
    block_bound, cache_bound = bound

    rows = np.array(slots + written, dtype=np.int64)  # each row's slot, then its write index and position
    x = np.ascontiguousarray(x)
    out = np.empty((2,) + x.shape)
    if kernel(block_bound.address, cache_bound.address, len(slots), address(x), address(rows), address(out)) != 0:
        raise MemoryError("decode attention could not allocate its scratch memory")
    cache.length = max(cache.length, top + 1)
    return out[0], out[1]
