"""Grouped-query attention with rotary position embeddings and a KV cache."""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.backend import active_backend
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils.config import ConfigBase
from repro.utils.rng import new_rng, spawn_rng


@dataclasses.dataclass(frozen=True)
class AttentionConfig(ConfigBase):
    """Configuration of a grouped-query attention block."""

    d_model: int
    n_heads: int
    n_kv_heads: int
    rope_base: float = 10000.0
    max_seq_len: int = 2048

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads


class RotaryEmbedding:
    """Pre-computed rotary position embedding tables."""

    def __init__(self, head_dim: int, max_seq_len: int, base: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError("head_dim must be even for RoPE")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        positions = np.arange(max_seq_len)[:, None]
        freqs = base ** (-np.arange(0, head_dim, 2) / head_dim)[None, :]
        angles = positions * freqs  # (seq, head_dim/2)
        self.cos = np.cos(angles)
        self.sin = np.sin(angles)
        # Each (even, odd) float pair rotated by angle t is exactly the complex
        # product (x_even + i*x_odd) * (cos t + i*sin t): same four multiplies
        # and two adds, but fused into a single vectorised pass.
        self._rotor = self.cos + 1j * self.sin  # (seq, head_dim/2) complex128

    def rotate(
        self,
        x: np.ndarray,
        position_offset: int = 0,
        position_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply rotary embedding to ``x`` of shape ``(..., seq, head_dim)``.

        ``position_ids`` — shape ``(seq,)`` or ``(batch, seq)`` — gives each
        token an explicit absolute position, overriding the contiguous
        ``position_offset .. position_offset + seq`` range.  This is the
        ragged-batch path: in a left-padded batch (or a continuous-batching
        decode step) every row sits at its own offset.
        """
        seq_len = x.shape[-2]
        if position_ids is not None:
            position_ids = np.asarray(position_ids, dtype=np.int64)
            if position_ids.shape[-1] != seq_len:
                raise ValueError("position_ids last axis must match the sequence length")
            if int(position_ids.max(initial=0)) >= self.max_seq_len or int(position_ids.min(initial=0)) < 0:
                raise ValueError("position_ids exceed the RoPE table length")
            rotor = self._rotor[position_ids]  # (..., seq, head_dim/2)
            if position_ids.ndim == 2:
                # Align (batch, seq, hd/2) under the head axis of (batch, heads, seq, hd).
                rotor = rotor[:, None]
        else:
            if position_offset + seq_len > self.max_seq_len:
                raise ValueError("sequence exceeds RoPE table length")
            rotor = self._rotor[position_offset : position_offset + seq_len]
        if x.dtype == np.float64 and x.strides[-1] == x.itemsize:
            # Zero-copy complex view of the interleaved (even, odd) pairs.
            rotated = x.view(np.complex128) * rotor
            return rotated.view(np.float64)
        cos = rotor.real
        sin = rotor.imag
        x_even = x[..., 0::2]
        x_odd = x[..., 1::2]
        rotated = np.empty_like(x)
        rotated[..., 0::2] = x_even * cos - x_odd * sin
        rotated[..., 1::2] = x_even * sin + x_odd * cos
        return rotated


class KVCache:
    """Per-layer key/value cache used during autoregressive decoding.

    The cache is batched: it holds ``(batch, n_kv_heads, max_seq_len,
    head_dim)`` arrays and decodes a whole batch of sequences in lock-step.
    ``batch_size=1`` (the default) reproduces the original single-sequence
    cache; 3-D appends of shape ``(n_kv_heads, t, head_dim)`` keep working
    and return 3-D views.

    Each batch row is also an independently managed *slot* for continuous
    batching: :meth:`insert_slot` prefills one row with a new sequence's K/V,
    :meth:`evict_slot` frees it, and :meth:`slot_view` yields a cache-like
    object that appends decode tokens at per-slot positions (``lengths``
    tracks every slot's fill independently; ``length`` remains the scalar
    lock-step high-water mark).
    """

    def __init__(self, n_kv_heads: int, head_dim: int, max_seq_len: int, batch_size: int = 1):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        self.batch_size = batch_size
        self.keys = np.zeros((batch_size, n_kv_heads, max_seq_len, head_dim))
        self.values = np.zeros((batch_size, n_kv_heads, max_seq_len, head_dim))
        self.length = 0
        self.lengths = np.zeros(batch_size, dtype=np.int64)

    def append(self, keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append new keys/values for ``t`` tokens per sequence.

        Accepts ``(batch, n_kv_heads, t, head_dim)`` or — for a batch-1 cache
        — the legacy ``(n_kv_heads, t, head_dim)``.  Returns views of the full
        cached keys/values up to the new length, in the same rank as the
        input.
        """
        squeeze = keys.ndim == 3
        if squeeze:
            keys = keys[None]
            values = values[None]
        if keys.shape[0] != self.batch_size:
            raise ValueError(
                f"cache holds batch_size={self.batch_size} but got batch {keys.shape[0]}"
            )
        t = keys.shape[2]
        if self.length + t > self.max_seq_len:
            raise RuntimeError("KV cache overflow")
        self.keys[:, :, self.length : self.length + t] = keys
        self.values[:, :, self.length : self.length + t] = values
        self.length += t
        self.lengths[:] = self.length
        k_all = self.keys[:, :, : self.length]
        v_all = self.values[:, :, : self.length]
        if squeeze:
            return k_all[0], v_all[0]
        return k_all, v_all

    # ------------------------------------------------------------ slot-wise API
    def insert_slot(
        self,
        slot: int,
        keys: np.ndarray,
        values: np.ndarray,
        prefix: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Prefill one cache slot with a sequence's K/V at positions ``0..L-1``.

        ``keys``/``values`` have shape ``(n_kv_heads, L, head_dim)``.  The
        slot's tail past ``L`` is zeroed so a re-used slot never exposes a
        previous occupant's K/V to an under-masked consumer.

        ``prefix`` is an optional ``(keys, values)`` pair of shape
        ``(n_kv_heads, P, head_dim)`` — a prefix-cache hit — copied in at
        positions ``0..P-1``; ``keys``/``values`` then hold only the unseen
        suffix and land at ``P..P+L-1``.  Keys in this codebase are
        RoPE-rotated at absolute positions starting from 0 in every slot, so
        cached prefix keys are valid verbatim for any sequence sharing the
        prefix.
        """
        start = 0
        if prefix is not None:
            prefix_keys, prefix_values = prefix
            start = prefix_keys.shape[1]
            if start + keys.shape[1] > self.max_seq_len:
                raise RuntimeError("KV cache overflow")
            self.keys[slot, :, :start] = prefix_keys
            self.values[slot, :, :start] = prefix_values
        length = start + keys.shape[1]
        if length > self.max_seq_len:
            raise RuntimeError("KV cache overflow")
        self.keys[slot, :, start:length] = keys
        self.keys[slot, :, length:] = 0.0
        self.values[slot, :, start:length] = values
        self.values[slot, :, length:] = 0.0
        self.lengths[slot] = length
        self.length = int(self.lengths.max())

    def seed(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Pre-load cached K/V for ``P`` tokens so :meth:`append` continues at ``P``.

        ``keys``/``values`` have shape ``(n_kv_heads, P, head_dim)`` (or a
        leading batch axis matching the cache).  This is the prefix-cache
        prefill path: the cache behaves exactly as if those ``P`` tokens had
        just been forwarded, so a subsequent forward of the suffix attends
        the seeded prefix and picks up RoPE positions at offset ``P``.
        """
        if keys.ndim == 3:
            keys = keys[None]
            values = values[None]
        if keys.shape[0] != self.batch_size:
            raise ValueError(f"cache holds batch_size={self.batch_size} but got batch {keys.shape[0]}")
        length = keys.shape[2]
        if length > self.max_seq_len:
            raise RuntimeError("KV cache overflow")
        self.keys[:, :, :length] = keys
        self.values[:, :, :length] = values
        self.length = length
        self.lengths[:] = length

    def evict_slot(self, slot: int) -> None:
        """Free one cache slot (its K/V become dead; masks must hide it)."""
        self.lengths[slot] = 0
        self.length = int(self.lengths.max())

    def slot_view(self, slots) -> "KVCacheSlotView":
        """A per-slot append view over ``slots`` for continuous-batching decode."""
        return KVCacheSlotView(self, slots)

    def reset(self) -> None:
        self.length = 0
        self.lengths[:] = 0

    def memory_bytes(self, bytes_per_element: float = 2.0) -> float:
        """Approximate KV-cache footprint (fp16 by default)."""
        return (
            2.0 * self.batch_size * self.n_kv_heads * self.max_seq_len * self.head_dim * bytes_per_element
        )


class KVCacheSlotView:
    """A view of selected :class:`KVCache` slots with per-slot append positions.

    Passed in place of a :class:`KVCache` for one continuous-batching decode
    step: :meth:`append` writes each sequence's new K/V at that sequence's own
    current length (slots decode at *different* positions) and returns the
    gathered keys/values up to the longest selected slot.  Shorter slots carry
    zeros past their length — callers mask those positions out via the
    attention ``attention_mask``/key bias, exactly like left-padding.
    """

    def __init__(self, cache: KVCache, slots):
        self.cache = cache
        self.slots = np.asarray(slots, dtype=np.int64)
        if self.slots.ndim != 1 or self.slots.size == 0:
            raise ValueError("slot_view needs a non-empty 1-D list of slot indices")
        if self.slots.min() < 0 or self.slots.max() >= cache.batch_size:
            raise ValueError(f"slot indices must lie in [0, {cache.batch_size})")

    @property
    def lengths(self) -> np.ndarray:
        return self.cache.lengths[self.slots]

    @property
    def length(self) -> int:
        return int(self.lengths.max())

    def append(self, keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append one decode token per selected slot at per-slot positions.

        ``keys``/``values`` have shape ``(n_slots, n_kv_heads, 1, head_dim)``.
        Returns gathered ``(n_slots, n_kv_heads, total, head_dim)`` arrays
        where ``total`` is the longest selected slot after the append.
        """
        if keys.ndim != 4 or keys.shape[2] != 1:
            raise ValueError("slot views append exactly one token per slot and step")
        if keys.shape[0] != self.slots.size:
            raise ValueError(f"expected K/V for {self.slots.size} slots, got {keys.shape[0]}")
        cache = self.cache
        positions = cache.lengths[self.slots]
        if int(positions.max()) + 1 > cache.max_seq_len:
            raise RuntimeError("KV cache overflow")
        cache.keys[self.slots, :, positions] = keys[:, :, 0]
        cache.values[self.slots, :, positions] = values[:, :, 0]
        cache.lengths[self.slots] = positions + 1
        cache.length = int(cache.lengths.max())
        total = int(positions.max()) + 1
        return cache.keys[self.slots, :, :total], cache.values[self.slots, :, :total]


class GroupedQueryAttention(Module):
    """Multi-head attention with grouped (shared) key/value heads.

    The paper does not sparsify attention; it is included because the HW
    simulator must account for attention weights and KV cache being resident
    in DRAM (Appendix A) and because the tiny models need full transformer
    blocks to produce realistic activation statistics.
    """

    def __init__(self, config: AttentionConfig, seed=None):
        super().__init__()
        self.config = config
        rng = new_rng(seed)
        d = config.d_model
        kv_dim = config.n_kv_heads * config.head_dim
        self.q_proj = Linear(d, d, seed=spawn_rng(rng, "q"))
        self.k_proj = Linear(d, kv_dim, seed=spawn_rng(rng, "k"))
        self.v_proj = Linear(d, kv_dim, seed=spawn_rng(rng, "v"))
        self.o_proj = Linear(d, d, seed=spawn_rng(rng, "o"))
        self.rope = RotaryEmbedding(config.head_dim, config.max_seq_len, config.rope_base)

    # ---------------------------------------------------------------- training
    def forward(self, x: Tensor) -> Tensor:
        """Causal self-attention over a full sequence (training path).

        ``x`` has shape ``(batch, seq, d_model)``.
        """
        batch, seq, d = x.shape
        cfg = self.config
        q = self.q_proj(x).reshape(batch, seq, cfg.n_heads, cfg.head_dim)
        k = self.k_proj(x).reshape(batch, seq, cfg.n_kv_heads, cfg.head_dim)
        v = self.v_proj(x).reshape(batch, seq, cfg.n_kv_heads, cfg.head_dim)

        # (batch, heads, seq, head_dim)
        q = q.transpose(0, 2, 1, 3)
        k = k.transpose(0, 2, 1, 3)
        v = v.transpose(0, 2, 1, 3)

        # Rotary embedding is a constant linear map of the inputs, so applying
        # it to the underlying data (constant cos/sin) keeps the graph valid.
        q = _apply_rope_tensor(q, self.rope)
        k = _apply_rope_tensor(k, self.rope)

        # Expand KV heads to match query heads (grouped-query attention).
        if cfg.group_size > 1:
            k = _repeat_kv(k, cfg.group_size)
            v = _repeat_kv(v, cfg.group_size)

        scale = 1.0 / np.sqrt(cfg.head_dim)
        scores = q.matmul(k.swapaxes(-1, -2)) * scale
        scores = scores + _causal_bias(seq)
        weights = F.softmax(scores, axis=-1)
        context = weights.matmul(v)  # (batch, heads, seq, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, d)
        return self.o_proj(context)

    # --------------------------------------------------------------- inference
    def forward_array(
        self,
        x: np.ndarray,
        kv_cache: Optional[KVCache] = None,
        attention_mask: Optional[np.ndarray] = None,
        position_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inference path on plain arrays, optionally using a KV cache.

        ``x`` has shape ``(seq, d_model)`` (single sequence) or
        ``(batch, seq, d_model)``; the output matches the input rank.  With a
        cache the call processes ``seq`` new tokens per sequence appended
        after the cached prefix (``kv_cache`` may also be a
        :class:`KVCacheSlotView` appending at per-slot positions).

        ``attention_mask`` is an *additive* bias over key positions — shape
        ``(total,)``, ``(batch, total)`` or ``(batch, seq, total)``, ``0`` for
        visible keys and a large negative value (e.g. ``-1e9``) for hidden
        ones.  Left-padded ragged batches use it to hide pad keys, and
        continuous-batching decode uses it to hide the tail of shorter slots.
        ``position_ids`` gives each query/key token its absolute RoPE
        position (per row), overriding the cache-length offset.
        """
        cfg = self.config
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        batch, seq, _ = x.shape
        offset = kv_cache.length if kv_cache is not None and position_ids is None else 0

        # (batch, heads, seq, head_dim)
        q = self.q_proj.forward_array(x).reshape(batch, seq, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)
        k = self.k_proj.forward_array(x).reshape(batch, seq, cfg.n_kv_heads, cfg.head_dim).transpose(0, 2, 1, 3)
        v = self.v_proj.forward_array(x).reshape(batch, seq, cfg.n_kv_heads, cfg.head_dim).transpose(0, 2, 1, 3)

        q = self.rope.rotate(q, position_offset=offset, position_ids=position_ids)
        k = self.rope.rotate(k, position_offset=offset, position_ids=position_ids)

        if kv_cache is not None:
            k_all, v_all = kv_cache.append(k, v)
        else:
            k_all, v_all = k, v
        total = k_all.shape[2]

        # Grouped-query attention without materialising repeated KV heads:
        # fold the query heads into (kv_head, group) and let matmul broadcast
        # the singleton group axis of K/V — a zero-copy view, no np.repeat.
        g = cfg.group_size
        q = q.reshape(batch, cfg.n_kv_heads, g, seq, cfg.head_dim)
        k_all = k_all[:, :, None]  # (batch, kv_heads, 1, total, head_dim)
        v_all = v_all[:, :, None]

        backend = active_backend()
        scale = 1.0 / np.sqrt(cfg.head_dim)
        scores = backend.matmul(q, k_all.swapaxes(-1, -2))  # (batch, kv, g, seq, total)
        scores *= scale
        if seq > 1:  # a single new token attends to the whole prefix: no mask needed
            scores += _causal_bias_rect(seq, total)
        if attention_mask is not None:
            scores += _broadcast_key_bias(attention_mask, total)
        weights = backend.softmax(scores, axis=-1)
        context = backend.matmul(weights, v_all)  # (batch, kv, g, seq, head_dim)
        context = context.reshape(batch, cfg.n_heads, seq, cfg.head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, cfg.d_model)
        out = self.o_proj.forward_array(context)
        return out[0] if squeeze else out

    def new_cache(self, max_seq_len: Optional[int] = None, batch_size: int = 1) -> KVCache:
        """Create an empty KV cache sized for this attention block."""
        return KVCache(
            self.config.n_kv_heads,
            self.config.head_dim,
            max_seq_len or self.config.max_seq_len,
            batch_size=batch_size,
        )


def _apply_rope_tensor(x: Tensor, rope: RotaryEmbedding) -> Tensor:
    """Apply RoPE to a Tensor of shape (batch, heads, seq, head_dim).

    The rotation is expressed with differentiable slicing and constant
    cos/sin tables, so gradients flow through normally.
    """
    seq = x.shape[-2]
    cos = rope.cos[:seq]
    sin = rope.sin[:seq]
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    rot_even = x_even * cos - x_odd * sin
    rot_odd = x_even * sin + x_odd * cos
    # Interleave even/odd back: stack on a new trailing axis then reshape.
    stacked = Tensor.stack([rot_even, rot_odd], axis=-1)
    return stacked.reshape(*x.shape)


def _repeat_kv(x: Tensor, repeats: int) -> Tensor:
    """Repeat KV heads along the head axis for grouped-query attention.

    A single reshape + broadcast-multiply expansion; gradients sum back over
    the repeated axis automatically (no per-head slicing / concatenation).
    """
    # x: (batch, kv_heads, seq, head_dim) -> (batch, kv_heads*repeats, seq, head_dim)
    batch, kv_heads, seq, head_dim = x.shape
    expanded = x.reshape(batch, kv_heads, 1, seq, head_dim) * np.ones((1, 1, repeats, 1, 1))
    return expanded.reshape(batch, kv_heads * repeats, seq, head_dim)


def _broadcast_key_bias(mask: np.ndarray, total: int) -> np.ndarray:
    """Align an additive key bias with ``(batch, kv, group, seq, total)`` scores."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape[-1] != total:
        raise ValueError(f"attention_mask covers {mask.shape[-1]} key positions, expected {total}")
    if mask.ndim == 1:  # (total,) — one shared key bias
        return mask
    if mask.ndim == 2:  # (batch, total) — per-sequence key bias
        return mask[:, None, None, None, :]
    if mask.ndim == 3:  # (batch, seq, total) — per-query key bias
        return mask[:, None, None, :, :]
    raise ValueError("attention_mask must be 1-D, 2-D, or 3-D")


# ---------------------------------------------------------------------------
# Cached causal masks.  One grow-only square upper-triangular bias serves
# every requested shape as a view: memory is bounded by the largest sequence
# length seen, not by the number of distinct (seq, total) shapes.
# ---------------------------------------------------------------------------

_CAUSAL_SQUARE = np.zeros((0, 0))


def _causal_square(n: int) -> np.ndarray:
    global _CAUSAL_SQUARE
    if _CAUSAL_SQUARE.shape[0] < n:
        _CAUSAL_SQUARE = np.triu(np.full((n, n), -1e9), k=1)
    return _CAUSAL_SQUARE


def _causal_bias(seq: int) -> np.ndarray:
    """Additive causal mask ``(seq, seq)`` (training path); a cached view."""
    return _causal_square(seq)[:seq, :seq]


def _causal_bias_rect(seq: int, total: int) -> np.ndarray:
    """Additive causal mask ``(seq, total)`` for the cached-prefix layout.

    Queries occupy positions ``total - seq .. total - 1``; key positions a
    query may not attend to get ``-1e9``.  Row ``i`` of the slice is square
    row ``total - seq + i``, which forbids exactly the keys past position
    ``total - seq + i``.
    """
    return _causal_square(total)[total - seq : total, :total]
