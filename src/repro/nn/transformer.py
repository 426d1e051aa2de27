"""Decoder-only transformer (causal LM) built from attention + gated MLP blocks.

A decode step through the slot views of a ``ContinuousBatch`` runs each
block's attention half, and the head, in one call of a compiled kernel when
one is built (:mod:`repro.nn.decode_attn`).  Every other forward runs on
numpy: prefill, every forward on a host without a C compiler, and
:meth:`CausalLM.generate`, the deliberately simple oracle every decode path
is compared against.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.backend import active_backend
from repro.nn.attention import MASKED_BIAS, AttentionConfig, GroupedQueryAttention, KVCache, KVCacheSlotView
from repro.nn.decode_attn import decode_attention, decode_head
from repro.nn.embedding import Embedding, check_length, check_prompt
from repro.nn.linear import Linear
from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.nn.module import Module, ModuleList
from repro.nn.norm import RMSNorm
from repro.utils.config import ConfigBase
from repro.utils.rng import SeedLike, new_rng, spawn_rng


@dataclasses.dataclass(frozen=True)
class TransformerConfig(ConfigBase):
    """Architecture configuration for a decoder-only SwiGLU transformer."""

    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_ffn: int
    max_seq_len: int = 512
    activation: str = "silu"
    tie_embeddings: bool = True
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.vocab_size <= 0 or self.n_layers <= 0:
            raise ValueError("vocab_size and n_layers must be positive")

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_kv_heads=self.n_kv_heads,
            rope_base=self.rope_base,
            max_seq_len=self.max_seq_len,
        )

    def mlp_config(self) -> GLUMLPConfig:
        return GLUMLPConfig(d_model=self.d_model, d_ffn=self.d_ffn, activation=self.activation)

    # ------------------------------------------------------- parameter counts
    def mlp_parameters(self) -> int:
        """Parameters in all gated MLP blocks (the sparsifiable weights)."""
        return self.n_layers * 3 * self.d_model * self.d_ffn

    def attention_parameters(self) -> int:
        head_dim = self.d_model // self.n_heads
        kv_dim = self.n_kv_heads * head_dim
        per_layer = 2 * self.d_model * self.d_model + 2 * self.d_model * kv_dim
        return self.n_layers * per_layer

    def embedding_parameters(self) -> int:
        count = self.vocab_size * self.d_model
        if not self.tie_embeddings:
            count *= 2
        return count

    def total_parameters(self) -> int:
        norms = (2 * self.n_layers + 1) * self.d_model
        return self.mlp_parameters() + self.attention_parameters() + self.embedding_parameters() + norms

    def mlp_fraction(self) -> float:
        """Fraction of all parameters residing in MLP blocks."""
        return self.mlp_parameters() / self.total_parameters()


def _sample_token(logits: np.ndarray, temperature: float, rng) -> int:
    """Sample (or argmax, for ``temperature <= 0``) one token id from logits."""
    if temperature <= 0:
        return int(np.argmax(logits))
    probs = F.softmax_array(logits / temperature)
    return int(rng.choice(len(probs), p=probs))


def left_pad_ragged(prompts: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Left-pad ragged token sequences into one rectangular batch.

    Returns ``(padded, position_ids, key_bias, lengths)``:

    * ``padded`` — ``(batch, P)`` int64, each row right-aligned with id 0
      in front (``P`` is the longest prompt);
    * ``position_ids`` — ``(batch, P)``, each real token's position *within
      its own sequence* (pads get 0, which is irrelevant because they are
      masked);
    * ``key_bias`` — ``(batch, P)`` additive attention mask, ``0`` on real
      tokens and :data:`MASKED_BIAS` on pads;
    * ``lengths`` — ``(batch,)`` original sequence lengths.

    Together with per-row RoPE positions this makes a left-padded batched
    forward produce *bit-identical* hidden states for the real tokens of
    every row, so ragged prompts no longer need equal-length bucketing.
    """
    sequences = [np.asarray(p, dtype=np.int64).reshape(-1) for p in prompts]
    if not sequences or any(len(p) == 0 for p in sequences):
        raise ValueError("left_pad_ragged needs at least one non-empty sequence")
    lengths = np.asarray([len(p) for p in sequences], dtype=np.int64)
    longest = int(lengths.max())
    padded = np.zeros((len(sequences), longest), dtype=np.int64)
    for i, seq in enumerate(sequences):
        padded[i, longest - len(seq) :] = seq
    pads = (longest - lengths)[:, None]
    columns = np.arange(longest)[None, :]
    position_ids = np.maximum(columns - pads, 0)
    key_bias = np.where(columns >= pads, 0.0, MASKED_BIAS)
    return padded, position_ids, key_bias, lengths


class TransformerBlock(Module):
    """Pre-norm transformer block: attention + gated MLP with residuals."""

    #: The compiled decode kernel's view of this block's weights (see
    #: :mod:`repro.nn.decode_attn`).  Holds addresses, so copies and pickles
    #: start without it and bind their own weights on first use.
    _bound = None

    def __init__(self, config: TransformerConfig, layer_index: int, seed=None):
        super().__init__()
        self.layer_index = layer_index
        rng = new_rng(seed)
        self.attention_norm = RMSNorm(config.d_model)
        self.attention = GroupedQueryAttention(config.attention_config(), seed=spawn_rng(rng, "attn"))
        self.mlp_norm = RMSNorm(config.d_model)
        self.mlp = SwiGLUMLP(config.mlp_config(), seed=spawn_rng(rng, "mlp"))

    def forward(self, x: Tensor, mlp_override=None) -> Tensor:
        """Training path.  ``mlp_override(block, normed_x)`` replaces the MLP
        computation when provided (used for sparse / LoRA fine-tuning)."""
        x = x + self.attention(self.attention_norm(x))
        normed = self.mlp_norm(x)
        if mlp_override is not None:
            mlp_out = mlp_override(self, normed)
        else:
            mlp_out = self.mlp(normed)
        return x + mlp_out

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bound", None)
        return state

    def forward_array(
        self,
        x: np.ndarray,
        kv_cache: Optional[KVCache] = None,
        mlp_override: Optional[Callable[..., np.ndarray]] = None,
        attention_mask: Optional[np.ndarray] = None,
        position_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inference path.  ``mlp_override(block, normed_x)`` replaces the MLP
        computation when provided (used by the sparse inference engine).
        ``attention_mask``/``position_ids`` pass through to the attention
        block (left-padded ragged batches).

        A decode step through a slot view — one new token per slot — runs
        the attention half (both norms included) as one call of a C kernel
        when one is built (:mod:`repro.nn.decode_attn`); every other forward
        and hosts without a compiler take the numpy path.  The two agree to
        rounding.  The MLP always runs here."""
        attended = None
        if attention_mask is None and position_ids is None:  # the numpy path refuses them on a slot view
            attended = decode_attention(self, x, kv_cache)
        if attended is not None:
            x, normed = attended
        else:
            x = x + self.attention.forward_array(
                self.attention_norm.forward_array(x),
                kv_cache,
                attention_mask=attention_mask,
                position_ids=position_ids,
            )
            normed = self.mlp_norm.forward_array(x)
        if mlp_override is not None:
            mlp_out = mlp_override(self, normed)
        else:
            mlp_out = self.mlp.forward_array(normed)
        return x + mlp_out


class CausalLM(Module):
    """Decoder-only causal language model."""

    #: The compiled head's view of the final norm and head weights (see
    #: :mod:`repro.nn.decode_attn`).  Holds addresses, so copies and pickles
    #: start without it.
    _bound = None

    def __init__(self, config: TransformerConfig, seed=None):
        super().__init__()
        self.config = config
        rng = new_rng(seed)
        self.embedding = Embedding(config.vocab_size, config.d_model, seed=spawn_rng(rng, "embed"))
        self.blocks = ModuleList(
            [TransformerBlock(config, i, seed=spawn_rng(rng, f"block{i}")) for i in range(config.n_layers)]
        )
        self.final_norm = RMSNorm(config.d_model)
        if config.tie_embeddings:
            self.lm_head = None
        else:
            self.lm_head = Linear(config.d_model, config.vocab_size, seed=spawn_rng(rng, "head"))

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bound", None)
        return state

    # ---------------------------------------------------------------- training
    def forward(self, token_ids: np.ndarray, mlp_override=None) -> Tensor:
        """Return logits of shape ``(batch, seq, vocab)`` (training path)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        x = self.embedding(token_ids)
        for block in self.blocks:
            x = block(x, mlp_override=mlp_override)
        x = self.final_norm(x)
        return self._project_logits(x)

    def _project_logits(self, x: Tensor) -> Tensor:
        if self.lm_head is not None:
            return self.lm_head(x)
        return x.matmul(self.embedding.weight.T)

    def loss(self, token_ids: np.ndarray) -> Tensor:
        """Next-token cross-entropy over a batch of sequences."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        logits = self.forward(token_ids[:, :-1])
        targets = token_ids[:, 1:]
        return F.cross_entropy(logits, targets)

    # --------------------------------------------------------------- inference
    def forward_array(
        self,
        token_ids: np.ndarray,
        kv_caches: Optional[List[KVCache]] = None,
        mlp_override: Optional[Callable[..., np.ndarray]] = None,
        return_hidden: bool = False,
        last_only: bool = False,
        attention_mask: Optional[np.ndarray] = None,
        position_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inference logits for ``(seq,)`` or ``(batch, seq)`` token ids.

        The output matches the input rank: ``(seq, vocab)`` or
        ``(batch, seq, vocab)``.  ``last_only=True`` projects logits for the
        final position only (shape ``(..., 1, vocab)``) — the prefill fast
        path of :meth:`generate`, which skips the full-vocabulary projection
        for every non-final prompt position.  ``attention_mask`` (additive
        key bias) and ``position_ids`` (absolute RoPE positions per token)
        support left-padded ragged batches; see :func:`left_pad_ragged`.

        A step through slot views (``ContinuousBatch.step``) runs its head in
        one call of the compiled head when it is built
        (:func:`~repro.nn.decode_attn.decode_head`), the function the
        one-call decode step (:mod:`repro.engine.decode_step`) ends with, so
        both give the same logits; every other forward runs
        :meth:`logits_array`.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim not in (1, 2):
            raise ValueError("forward_array expects (seq,) or (batch, seq) token ids")
        x = self.embedding.forward_array(token_ids)
        hidden_states = []
        for i, block in enumerate(self.blocks):
            cache = kv_caches[i] if kv_caches is not None else None
            x = block.forward_array(
                x,
                kv_cache=cache,
                mlp_override=mlp_override,
                attention_mask=attention_mask,
                position_ids=position_ids,
            )
            if return_hidden:
                hidden_states.append(x.copy())
        logits = None
        if kv_caches and isinstance(kv_caches[0], KVCacheSlotView):
            logits = decode_head(self, x)
        if logits is None:
            logits = self.logits_array(x, last_only)
        if return_hidden:
            return logits, hidden_states
        return logits

    def logits_array(self, x: np.ndarray, last_only: bool = False) -> np.ndarray:
        """Logits of the last block's hidden states ``x`` ``(..., seq,
        d_model)`` on numpy: the final RMSNorm, then the lm_head or, tied,
        the embedding.  ``last_only`` projects the final position only."""
        if last_only:  # the norm is per position: normalise the last one only
            x = x[..., -1:, :]
        x = self.final_norm.forward_array(x)
        if self.lm_head is not None:
            return self.lm_head.forward_array(x)
        # Tied embedding head: one flattened GEMM through the backend.
        return active_backend().linear(x, self.embedding.weight.data)

    def new_kv_caches(self, max_seq_len: Optional[int] = None, batch_size: int = 1) -> List[KVCache]:
        """Create one empty (optionally batched) KV cache per layer."""
        return [block.attention.new_cache(max_seq_len, batch_size=batch_size) for block in self.blocks]

    def generate(
        self,
        prompt_ids: Sequence[int],
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: SeedLike = None,
        mlp_override: Optional[Callable[..., np.ndarray]] = None,
    ) -> np.ndarray:
        """Autoregressive sampling (greedy when ``temperature == 0``), on
        numpy end to end: the oracle every decode path is compared against.

        ``ValueError``, before any forward, for an empty prompt, an id
        outside the vocabulary, a negative budget or one the model cannot
        hold (:func:`~repro.nn.embedding.check_length`).  A budget of 0
        returns the prompt."""
        rng = new_rng(rng)
        prompt = np.asarray(list(prompt_ids), dtype=np.int64)
        check_prompt(prompt, self.config.vocab_size)
        check_length(len(prompt), max_new_tokens, self.config.max_seq_len)
        max_len = len(prompt) + max_new_tokens
        caches = self.new_kv_caches(max_seq_len=max_len)
        with no_grad():
            logits = self.forward_array(
                prompt, kv_caches=caches, mlp_override=mlp_override, last_only=True
            )
            generated = list(prompt)
            for step in range(max_new_tokens):
                next_id = _sample_token(logits[-1], temperature, rng)
                generated.append(next_id)
                if step + 1 < max_new_tokens:
                    logits = self.forward_array(
                        np.asarray([next_id], dtype=np.int64), kv_caches=caches, mlp_override=mlp_override
                    )
        return np.asarray(generated, dtype=np.int64)

    # ------------------------------------------------------------- structure
    @property
    def mlps(self) -> List[SwiGLUMLP]:
        """The per-layer gated MLP blocks in layer order."""
        return [block.mlp for block in self.blocks]

    def mlp_dimensions(self) -> Tuple[int, int, int]:
        """Return ``(n_layers, d_model, d_ffn)``."""
        return self.config.n_layers, self.config.d_model, self.config.d_ffn

    def parameter_breakdown(self) -> Dict[str, int]:
        """Parameter counts by component (embeddings / attention / mlp / norm)."""
        breakdown = {"embedding": 0, "attention": 0, "mlp": 0, "norm": 0, "head": 0}
        for name, param in self.named_parameters():
            if name.startswith("embedding"):
                breakdown["embedding"] += param.size
            elif ".attention." in name:
                breakdown["attention"] += param.size
            elif ".mlp." in name:
                breakdown["mlp"] += param.size
            elif name.startswith("lm_head"):
                breakdown["head"] += param.size
            else:
                breakdown["norm"] += param.size
        return breakdown
