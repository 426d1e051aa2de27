"""Plain static magnitude pruning (a sanity baseline for SparseGPT)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.compression.targets import weight_targets
from repro.nn.transformer import CausalLM


def magnitude_prune_linear(weight: np.ndarray, sparsity: float) -> np.ndarray:
    """Zero out the smallest-magnitude ``sparsity`` fraction of each row."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must lie in [0, 1)")
    weight = np.asarray(weight, dtype=np.float64).copy()
    n_prune = int(round(sparsity * weight.shape[1]))
    if n_prune == 0:
        return weight
    order = np.argsort(np.abs(weight), axis=1)
    prune_idx = order[:, :n_prune]
    rows = np.repeat(np.arange(weight.shape[0]), n_prune)
    weight[rows, prune_idx.reshape(-1)] = 0.0
    return weight


def magnitude_prune_model(model: CausalLM, sparsity: float, mlp_only: bool = True) -> Dict[str, float]:
    """Magnitude-prune a model's weights in place; returns realised sparsity."""
    realised: Dict[str, float] = {}
    for layer_index, block in enumerate(model.blocks):
        for name, weight in weight_targets(block, mlp_only).items():
            pruned = magnitude_prune_linear(weight.read(), sparsity)
            weight.write(pruned)
            realised[f"layer{layer_index}.{name}"] = float(np.mean(pruned == 0.0))
    return realised
