"""Perplexity evaluation under a sparsity method (the paper's WikiText-2 metric)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.inference import SparseInferenceEngine
from repro.nn.transformer import CausalLM
from repro.sparsity.base import DenseBaseline, SparsityMethod


def perplexity(
    model: CausalLM,
    sequences: np.ndarray,
    method: Optional[SparsityMethod] = None,
    max_sequences: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> float:
    """Token-level perplexity of ``model`` on ``sequences`` with ``method`` active.

    ``method=None`` evaluates the dense model.  Stateful methods (DIP-CA) are
    reset before evaluation so results do not depend on prior usage.
    Evaluation is batched by length bucket, ``batch_size`` sequences per
    forward at most (``None`` chunks to the engine's token budget).
    """
    engine = SparseInferenceEngine(model, method if method is not None else DenseBaseline())
    engine.reset()
    return engine.perplexity(sequences, max_sequences=max_sequences, batch_size=batch_size)


def dense_perplexity(model: CausalLM, sequences: np.ndarray, max_sequences: Optional[int] = None) -> float:
    """Perplexity of the unmodified dense model."""
    return perplexity(model, sequences, method=None, max_sequences=max_sequences)
