"""Token embedding layer, and the checks on the token ids it looks up."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.functional import embedding_lookup
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, seed=None):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("num_embeddings and embedding_dim must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = new_rng(seed)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.num_embeddings):
            raise IndexError("token id out of range for embedding table")
        return embedding_lookup(self.weight, token_ids)

    def forward_array(self, token_ids: np.ndarray) -> np.ndarray:
        """Inference-only lookup returning a plain array.

        ``token_ids`` may be ``(seq,)`` or ``(batch, seq)`` (any leading
        dims); the output appends the embedding dimension.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        return self.weight.data[token_ids]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding(vocab={self.num_embeddings}, dim={self.embedding_dim})"


def check_ids(ids: np.ndarray, vocab_size: int) -> None:
    """Raise ``ValueError`` unless every token id in ``ids`` lies in ``[0, vocab_size)``.

    The embedding indexes its table with the ids, so without this check
    ``-1`` would silently embed the last vocabulary row.
    """
    if ids.size:
        check_id_range(int(ids.min()), int(ids.max()), vocab_size)


def check_id_range(low: int, high: int, vocab_size: int) -> None:
    """Raise ``ValueError`` unless the smallest token id ``low`` and the
    largest ``high`` lie in ``[0, vocab_size)``: :func:`check_ids` for a
    caller that already holds them."""
    if low < 0 or high >= vocab_size:
        raise ValueError(f"token ids must lie in [0, {vocab_size}), got {low if low < 0 else high}")


def check_prompt(prompt: Sequence[int], vocab_size: int) -> None:
    """Raise ``ValueError`` unless ``prompt`` holds at least one token id
    and every id lies in ``[0, vocab_size)``.

    Prompts admitted together prefill in shared forwards, so one id the
    embedding cannot look up would fail every prompt beside it; such a
    prompt is refused up front instead, as :meth:`CausalLM.generate
    <repro.nn.transformer.CausalLM.generate>` refuses it.
    """
    ids = np.asarray(prompt)
    if ids.size == 0:
        raise ValueError("prompt must hold at least one token id")
    check_ids(ids, vocab_size)


def check_length(prompt_len: int, max_new_tokens: int, max_seq_len: int) -> None:
    """Raise ``ValueError`` for a negative token budget, or unless a prompt
    and its budget fit ``max_seq_len`` positions.

    Generation writes ``prompt_len + max_new_tokens - 1`` positions (the
    final sampled token is never fed back), and at least the prompt's, so
    anything larger is refused before any forward instead of failing
    mid-decode.  A budget of 0 is the prompt alone.
    """
    if max_new_tokens < 0:
        raise ValueError("max_new_tokens must not be negative")
    if prompt_len > max_seq_len:
        raise ValueError(f"prompt of {prompt_len} tokens exceeds max_seq_len={max_seq_len}")
    if prompt_len + max_new_tokens - 1 > max_seq_len:
        raise ValueError(
            f"prompt of {prompt_len} tokens + max_new_tokens={max_new_tokens} exceeds "
            f"max_seq_len={max_seq_len}; at most {max_seq_len - prompt_len + 1} new tokens fit"
        )


def check_request(prompt_len: int, max_new_tokens: int, max_seq_len: int, model_max_seq_len: int) -> None:
    """Raise ``ValueError`` unless a prompt and its token budget fit one
    decode slot of ``max_seq_len`` positions (:func:`check_budget`) and, by
    :func:`check_length`'s rule, the model's ``model_max_seq_len`` positions
    (its RoPE table), as :meth:`CausalLM.generate
    <repro.nn.transformer.CausalLM.generate>` refuses: a request past the
    smaller limit is refused before any forward instead of failing
    mid-stream.
    """
    check_budget(prompt_len, max_new_tokens, max_seq_len)
    check_length(prompt_len, max_new_tokens, model_max_seq_len)


def check_budget(prompt_len: int, max_new_tokens: int, max_seq_len: int) -> None:
    """Raise ``ValueError`` unless a prompt and its token budget fit one
    decode slot of ``max_seq_len`` positions: a budget of at least one
    token, room to decode past the prompt, and :func:`check_length`'s rule.
    """
    if max_new_tokens <= 0:
        raise ValueError("max_new_tokens must be positive")
    if prompt_len >= max_seq_len:
        raise ValueError(f"prompt of {prompt_len} tokens leaves no decode room in max_seq_len={max_seq_len}")
    check_length(prompt_len, max_new_tokens, max_seq_len)
