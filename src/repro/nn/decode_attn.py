"""The attention half of a decode step in one C call (``_decode_attn.c``).

:func:`decode_attention` serves :meth:`TransformerBlock.forward_array
<repro.nn.transformer.TransformerBlock.forward_array>` whenever a forward
adds one token per row through a KV cache: the slot views of
``ContinuousBatch.step`` and the lock-step caches of ``CausalLM.generate``
and ``generate_batch``.  One call of the kernel runs the attention norm, the
Q/K/V products on the stored weights, RoPE, the K/V write, the softmax over
each row's visible keys, the O projection with its residual and the MLP
norm.  The MLP itself stays with the caller.

Each row's cache row, write index and RoPE position come from the cache:

- **Slot views.** Slot ``s`` writes at and rotates by its own length, and
  sees keys ``0..length``; the view is the only source of both.
- **Lock-step caches.** Row ``b`` is slot ``b`` and writes at
  ``cache.length``; ``position_ids`` override its RoPE position and an
  ``attention_mask`` (left-pad key bias) is added to its scores.

It returns ``None`` when the kernel cannot serve a call (no compiler, not
float64, another shape, weights it cannot read in place), and the numpy path
runs instead; that path also stays the reference the tests compare against.
Results agree with it to rounding, not bit for bit.  Everything the kernel
indexes by is checked here first: a slot view's rows by :func:`slot_rows`,
the arrays by :func:`bindings`, the two checks the one-call decode
step (:mod:`repro.engine.decode_step`) runs for each block too.  Weight and
cache addresses are bound once per block and cache, re-bound when an array
is replaced, and never copied or pickled.
"""

from __future__ import annotations

import ctypes
import operator
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.nn.attention import KVCache, KVCacheSlotView
from repro.utils.native import CompiledKernel, address

if TYPE_CHECKING:
    from repro.nn.transformer import TransformerBlock

_size, _double, _pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class _Block(ctypes.Structure):
    """``struct block``: one block's geometry and weight addresses."""

    _fields_ = (
        [(name, _size) for name in ("d_model", "n_heads", "n_kv_heads", "head_dim")]
        + [(name, _double) for name in ("attention_eps", "mlp_eps", "scale")]
        + [(name, _pointer) for name in ("wq", "wk", "wv", "wo", "attention_norm", "mlp_norm", "cos", "sin")]
    )


class _Cache(ctypes.Structure):
    """``struct cache``: one KV cache's geometry and array addresses."""

    _fields_ = [("max_seq_len", _size)] + [(name, _pointer) for name in ("keys", "values", "lengths")]


DECODE_ATTN = CompiledKernel("decode_attn")


def _fits(a: np.ndarray, shape: Tuple[int, ...], dtype: type = np.float64) -> bool:
    return a.dtype == dtype and a.shape == shape and a.flags.c_contiguous


def _block_state(block: "TransformerBlock") -> tuple:
    """Everything the block's binding reads, compared by identity on each call."""
    attention = block.attention
    return (
        attention.q_proj.weight.data,
        attention.k_proj.weight.data,
        attention.v_proj.weight.data,
        attention.o_proj.weight.data,
        block.attention_norm.weight.data,
        block.mlp_norm.weight.data,
        attention.rope.cos,
        attention.rope.sin,
        block.attention_norm.eps,
        block.mlp_norm.eps,
        attention.q_proj.bias,
        attention.k_proj.bias,
        attention.v_proj.bias,
        attention.o_proj.bias,
    )


def _bind_block(block: "TransformerBlock", state: tuple) -> Optional[tuple]:
    """``(state, struct, address)`` for ``block``, or ``None`` if the kernel cannot read its weights."""
    cfg = block.attention.config
    rope = block.attention.rope
    d, kv_dim, table = cfg.d_model, cfg.n_kv_heads * cfg.head_dim, (rope.max_seq_len, cfg.head_dim // 2)
    shapes = ((d, d), (kv_dim, d), (kv_dim, d), (d, d), (d,), (d,), table, table)
    if any(bias is not None for bias in state[10:]) or not all(map(_fits, state[:8], shapes)):
        return None
    struct = _Block(
        d,
        cfg.n_heads,
        cfg.n_kv_heads,
        cfg.head_dim,
        state[8],
        state[9],
        1.0 / np.sqrt(cfg.head_dim),
        *(a.ctypes.data for a in state[:8]),
    )
    return state, struct, ctypes.addressof(struct)


def _bind_cache(cache: KVCache) -> Optional[tuple]:
    """``(arrays, struct, address)`` for ``cache``, or ``None`` if the kernel cannot write it in place."""
    arrays = (cache.keys, cache.values, cache.lengths)
    shape = (cache.batch_size, cache.n_kv_heads, cache.max_seq_len, cache.head_dim)
    if not (
        _fits(arrays[0], shape)
        and _fits(arrays[1], shape)
        and _fits(arrays[2], (cache.batch_size,), np.int64)
        and all(a.flags.writeable for a in arrays)
    ):
        return None
    struct = _Cache(cache.max_seq_len, *(a.ctypes.data for a in arrays))
    return arrays, struct, ctypes.addressof(struct)


def slot_rows(block: "TransformerBlock", cache: KVCache, slots: List[int]) -> Tuple[List[int], int]:
    """The kernel's ``rows`` for a slot-view step of ``block`` over
    ``cache``'s ``slots`` (each row's slot, then its write index, then its
    RoPE position: the slot's length) and the longest slot's length.

    Raises as the numpy path would, before anything is written, for slots
    that repeat or lie outside the cache, a length past the RoPE table and
    a full slot.
    """
    if min(slots) < 0 or max(slots) >= cache.batch_size or len(set(slots)) != len(slots):
        raise ValueError(f"slot indices must be distinct and lie in [0, {cache.batch_size})")
    lengths = cache.lengths.tolist()
    written = [lengths[slot] for slot in slots]
    top = max(written)
    if top >= block.attention.rope.max_seq_len or min(written) < 0:
        raise ValueError("position_ids exceed the RoPE table length")
    if top + 1 > cache.max_seq_len:
        raise RuntimeError("KV cache overflow")
    return slots + written + written, top


def bindings(block: "TransformerBlock", cache: KVCache) -> Optional[Tuple[tuple, tuple]]:
    """The kernel's bindings of ``block`` and ``cache``, each ``(arrays,
    struct, address)`` with the address of its ``struct block`` or ``struct
    cache``, or ``None`` when it cannot read the weights or write the cache
    in place.  Each binding is made again when one of the arrays it holds
    has been replaced.  A caller holds the bindings until its kernel call
    returns: another thread may bind the block again meanwhile."""
    cfg = block.attention.config
    if cache.n_kv_heads != cfg.n_kv_heads or cache.head_dim != cfg.head_dim:
        return None
    state = _block_state(block)
    bound = block._bound
    if bound is None or not all(map(operator.is_, state, bound[0])):
        bound = block._bound = _bind_block(block, state)
        if bound is None:
            return None
    held = cache._bound
    if held is None or not all(map(operator.is_, held[0], (cache.keys, cache.values, cache.lengths))):
        held = cache._bound = _bind_cache(cache)
        if held is None:
            return None
    return bound, held


def decode_attention(
    block: "TransformerBlock",
    x: np.ndarray,
    kv_cache,
    attention_mask: Optional[np.ndarray] = None,
    position_ids: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(residual, mlp_input)`` of ``block``'s attention half for one new
    token per row of ``x``, or ``None`` when the numpy path must run.

    ``x`` is ``(1, d_model)`` or ``(batch, 1, d_model)``; both outputs have
    its shape.  The K/V land in ``kv_cache`` and its lengths advance, as
    :meth:`KVCache.append` or :meth:`KVCacheSlotView.append` would.
    """
    if kv_cache is None or x.ndim not in (2, 3) or x.shape[-2] != 1 or x.dtype != np.float64:
        return None
    kernel = DECODE_ATTN.load()
    if kernel is None:
        return None
    batch = x.shape[0] if x.ndim == 3 else 1
    bias, stride = None, 0
    if isinstance(kv_cache, KVCacheSlotView):
        if attention_mask is not None or position_ids is not None:
            raise ValueError("a slot view sets its own positions and key mask")
        cache, slots = kv_cache.cache, kv_cache.slots.tolist()
        if len(slots) != batch:
            return None
        rows, top = slot_rows(block, cache, slots)
    elif isinstance(kv_cache, KVCache):
        cache, top, rope_len = kv_cache, kv_cache.length, block.attention.rope.max_seq_len
        if cache.batch_size != batch:
            return None
        if position_ids is None:
            if not 0 <= top < rope_len:
                raise ValueError("sequence exceeds RoPE table length")
            positions = [top] * batch
        else:
            given = np.asarray(position_ids, dtype=np.int64)
            if given.ndim not in (1, 2) or given.shape[-1] != 1 or given.size != batch:
                return None
            positions = given.ravel().tolist()
            if max(positions) >= rope_len or min(positions) < 0:
                raise ValueError("position_ids exceed the RoPE table length")
        if top + 1 > cache.max_seq_len:
            raise RuntimeError("KV cache overflow")
        rows = list(range(batch)) + [top] * batch + positions
    else:
        return None
    if attention_mask is not None:  # the kernel takes one (batch, keys) row per sequence
        bias = np.asarray(attention_mask, dtype=np.float64)
        if bias.shape[-1] != top + 1:
            raise ValueError(f"attention_mask covers {bias.shape[-1]} key positions, expected {top + 1}")
        if bias.shape != (batch, top + 1):
            return None
        if bias.strides[1] != bias.itemsize or bias.strides[0] % bias.itemsize:
            bias = np.ascontiguousarray(bias)
        stride = bias.strides[0] // bias.itemsize
    bound = bindings(block, cache)
    if bound is None:
        return None

    rows = np.array(rows, dtype=np.int64)  # slot, write index and position of each row
    x = np.ascontiguousarray(x)
    out = np.empty((2,) + x.shape)
    status = kernel(
        bound[0][2],
        bound[1][2],
        batch,
        address(x),
        address(rows),
        0 if bias is None else address(bias),
        stride,
        address(out),
    )
    if status != 0:
        raise MemoryError("decode attention could not allocate its scratch memory")
    cache.length = max(cache.length, top + 1)
    return out[0], out[1]
