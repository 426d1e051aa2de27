"""GLU activation thresholding strategies (paper Section 3.1, Figure 4).

Three ways to choose which GLU activations to prune at a target average
density:

* :class:`GlobalThreshold` — one magnitude threshold shared by all layers,
  calibrated on the pooled activation distribution.
* :class:`PerLayerThreshold` — one threshold per layer, calibrated from each
  layer's activation CDF on a calibration set (this is also what CATS does,
  but on the gate activations).
* :class:`PerTokenTopK` — keep the top-k magnitudes of each token
  independently (constant per-token density); equivalent to a per-token
  threshold at the k-th largest magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.transformer import CausalLM
from repro.sparsity.base import topk_fraction_mask


def collect_glu_activations(
    model: CausalLM,
    sequences: np.ndarray,
    max_tokens_per_sequence: Optional[int] = None,
) -> List[np.ndarray]:
    """Run the model on calibration sequences and collect per-layer GLU activations.

    Returns a list with one array of shape ``(n_tokens, d_ffn)`` per layer.
    """
    sequences = np.atleast_2d(np.asarray(sequences, dtype=np.int64))
    per_layer: List[List[np.ndarray]] = [[] for _ in model.blocks]

    for sequence in sequences:
        if max_tokens_per_sequence is not None:
            sequence = sequence[:max_tokens_per_sequence]
        x = model.embedding.forward_array(sequence)
        for layer_index, block in enumerate(model.blocks):
            x = x + block.attention.forward_array(block.attention_norm.forward_array(x))
            normed = block.mlp_norm.forward_array(x)
            glu = block.mlp.glu_activations_array(normed)
            per_layer[layer_index].append(glu)
            x = x + block.mlp.down_array(glu)
    return [np.concatenate(chunks, axis=0) for chunks in per_layer]


def collect_mlp_inputs(
    model: CausalLM,
    sequences: np.ndarray,
    max_tokens_per_sequence: Optional[int] = None,
) -> List[np.ndarray]:
    """Collect the post-norm MLP *inputs* per layer (used by DIP calibration
    and DejaVu predictor training).  Shapes ``(n_tokens, d_model)``."""
    sequences = np.atleast_2d(np.asarray(sequences, dtype=np.int64))
    per_layer: List[List[np.ndarray]] = [[] for _ in model.blocks]

    for sequence in sequences:
        if max_tokens_per_sequence is not None:
            sequence = sequence[:max_tokens_per_sequence]
        x = model.embedding.forward_array(sequence)
        for layer_index, block in enumerate(model.blocks):
            x = x + block.attention.forward_array(block.attention_norm.forward_array(x))
            normed = block.mlp_norm.forward_array(x)
            per_layer[layer_index].append(normed)
            x = x + block.mlp.forward_array(normed)
    return [np.concatenate(chunks, axis=0) for chunks in per_layer]


class ThresholdStrategy:
    """Base class: maps GLU activations ``(T, d_ffn)`` to a keep-mask."""

    name = "abstract"
    requires_calibration = False

    def __init__(self, target_density: float):
        if not 0.0 < target_density <= 1.0:
            raise ValueError("target_density must lie in (0, 1]")
        self.target_density = float(target_density)

    def calibrate(self, per_layer_activations: Sequence[np.ndarray]) -> None:
        """Fit thresholds from per-layer calibration activations (optional)."""

    def mask(self, glu_activations: np.ndarray, layer_index: int) -> np.ndarray:
        """Boolean keep-mask of the same shape as ``glu_activations``."""
        raise NotImplementedError

    def layer_densities(self, per_layer_activations: Sequence[np.ndarray]) -> np.ndarray:
        """Realised density per layer on the given activations (Fig. 4 y-axis)."""
        densities = []
        for layer_index, acts in enumerate(per_layer_activations):
            densities.append(float(self.mask(acts, layer_index).mean()))
        return np.asarray(densities)


class GlobalThreshold(ThresholdStrategy):
    """A single magnitude threshold shared by every layer."""

    name = "global"
    requires_calibration = True

    def __init__(self, target_density: float):
        super().__init__(target_density)
        self.threshold: Optional[float] = None

    def calibrate(self, per_layer_activations: Sequence[np.ndarray]) -> None:
        pooled = np.abs(np.concatenate([a.reshape(-1) for a in per_layer_activations]))
        # Keep the largest `target_density` fraction across the pooled distribution.
        self.threshold = float(np.quantile(pooled, 1.0 - self.target_density))

    def mask(self, glu_activations: np.ndarray, layer_index: int) -> np.ndarray:
        if self.threshold is None:
            raise RuntimeError("GlobalThreshold.calibrate must be called first")
        return np.abs(glu_activations) > self.threshold


class PerLayerThreshold(ThresholdStrategy):
    """One magnitude threshold per layer, from each layer's activation CDF."""

    name = "per-layer"
    requires_calibration = True

    def __init__(self, target_density: float):
        super().__init__(target_density)
        self.thresholds: Dict[int, float] = {}

    def calibrate(self, per_layer_activations: Sequence[np.ndarray]) -> None:
        self.thresholds = {
            layer_index: float(np.quantile(np.abs(acts), 1.0 - self.target_density))
            for layer_index, acts in enumerate(per_layer_activations)
        }

    def mask(self, glu_activations: np.ndarray, layer_index: int) -> np.ndarray:
        if layer_index not in self.thresholds:
            raise RuntimeError(f"no calibrated threshold for layer {layer_index}")
        return np.abs(glu_activations) > self.thresholds[layer_index]


class PerTokenTopK(ThresholdStrategy):
    """Keep the top-k magnitudes of every token (constant per-token density)."""

    name = "per-token-topk"
    requires_calibration = False

    def mask(self, glu_activations: np.ndarray, layer_index: int) -> np.ndarray:
        return topk_fraction_mask(np.abs(glu_activations), self.target_density)


THRESHOLD_STRATEGIES = {
    "global": GlobalThreshold,
    "per-layer": PerLayerThreshold,
    "per-token-topk": PerTokenTopK,
}


def build_threshold_strategy(name: str, target_density: float) -> ThresholdStrategy:
    """Instantiate a thresholding strategy by name."""
    if name not in THRESHOLD_STRATEGIES:
        raise KeyError(f"unknown threshold strategy '{name}'; available: {sorted(THRESHOLD_STRATEGIES)}")
    return THRESHOLD_STRATEGIES[name](target_density)
