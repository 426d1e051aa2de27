"""SparseGPT-style one-shot pruning (Frantar & Alistarh, 2023).

Weights are pruned with the OBS saliency criterion ``w^2 / [H^-1]_jj`` where
``H = X^T X + lambda I`` is the layer-input Hessian from a calibration set;
after pruning a column block the remaining columns are updated to compensate
the induced error, exactly as in GPTQ.  Supports unstructured sparsity at an
arbitrary ratio and the semi-structured N:M patterns (2:4, 4:8) the paper
compares against in Table 1 and Figure 8.

Note the paper's accounting: an unstructured/semi-structured mask costs at
least one extra bit per weight (Kuzmin et al., 2024); the memory-footprint
helpers in :mod:`repro.compression.footprint` expose that overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.compression.targets import weight_targets
from repro.nn.transformer import CausalLM
from repro.sparsity.thresholding import collect_mlp_inputs
from repro.utils.config import ConfigBase
from repro.utils.logging import get_logger

logger = get_logger("compression.sparsegpt")


@dataclasses.dataclass(frozen=True)
class SparseGPTConfig(ConfigBase):
    """SparseGPT pruning configuration."""

    #: Target weight sparsity (fraction of weights set to zero) for
    #: unstructured pruning.  Ignored when an N:M pattern is set.
    sparsity: float = 0.5
    #: Semi-structured pattern: prune ``n`` weights out of every ``m``.
    pattern_n: Optional[int] = None
    pattern_m: Optional[int] = None
    percdamp: float = 0.01
    block_size: int = 32

    def __post_init__(self):
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must lie in [0, 1)")
        if (self.pattern_n is None) != (self.pattern_m is None):
            raise ValueError("pattern_n and pattern_m must be set together")
        if self.pattern_n is not None and not 0 < self.pattern_n < self.pattern_m:
            raise ValueError("need 0 < pattern_n < pattern_m")

    @property
    def is_semi_structured(self) -> bool:
        return self.pattern_n is not None

    @property
    def effective_sparsity(self) -> float:
        if self.is_semi_structured:
            return self.pattern_n / self.pattern_m
        return self.sparsity

    def label(self) -> str:
        if self.is_semi_structured:
            return f"sparsegpt-{self.pattern_n}:{self.pattern_m}"
        return "sparsegpt-unstructured"


def _inverse_hessian_cholesky(
    inputs: Optional[np.ndarray], n_features: int, percdamp: float
) -> np.ndarray:
    """Upper-triangular Cholesky factor ``U`` with ``H^-1 = U^T U``.

    This is the quantity the GPTQ / SparseGPT recurrences use: processing
    columns left-to-right, ``U[j, j]`` plays the role of ``sqrt([H^-1]_jj)``
    conditioned on all previously processed columns, and ``U[j, j+1:]``
    propagates the compensation to the not-yet-processed columns.
    """
    if inputs is None or inputs.shape[0] < 2:
        return np.eye(n_features)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    hessian = inputs.T @ inputs
    damp = percdamp * np.mean(np.diag(hessian)) + 1e-8
    hessian[np.diag_indices_from(hessian)] += damp
    try:
        hinv = np.linalg.inv(hessian)
        return np.linalg.cholesky(hinv).T
    except np.linalg.LinAlgError:
        hessian[np.diag_indices_from(hessian)] += np.mean(np.diag(hessian))
        return np.linalg.cholesky(np.linalg.inv(hessian)).T


def sparsegpt_prune_linear(
    weight: np.ndarray,
    calibration_inputs: Optional[np.ndarray],
    config: SparseGPTConfig = SparseGPTConfig(),
) -> np.ndarray:
    """Prune one weight matrix ``(out, in)``; returns the pruned copy."""
    weight = np.asarray(weight, dtype=np.float64).copy()
    out_features, in_features = weight.shape
    hinv_chol = _inverse_hessian_cholesky(calibration_inputs, in_features, config.percdamp)
    diag = np.maximum(np.diag(hinv_chol), 1e-12)

    for block_start in range(0, in_features, config.block_size):
        block_end = min(block_start + config.block_size, in_features)
        block = weight[:, block_start:block_end]
        block_diag = diag[block_start:block_end]
        saliency = block**2 / (block_diag[None, :] ** 2)

        mask = np.ones_like(block, dtype=bool)  # True = keep
        if config.is_semi_structured:
            m = config.pattern_m
            n_prune = config.pattern_n
            width = block.shape[1]
            for group_start in range(0, width - width % m, m):
                group = saliency[:, group_start : group_start + m]
                order = np.argsort(group, axis=1)
                prune_idx = order[:, :n_prune]
                rows = np.repeat(np.arange(out_features), n_prune)
                mask[rows, group_start + prune_idx.reshape(-1)] = False
        else:
            n_prune = int(round(config.sparsity * block.shape[1]))
            if n_prune > 0:
                order = np.argsort(saliency, axis=1)
                prune_idx = order[:, :n_prune]
                rows = np.repeat(np.arange(out_features), n_prune)
                mask[rows, prune_idx.reshape(-1)] = False

        # Column-wise pruning with OBS error compensation (GPTQ recurrence).
        block_err = np.zeros_like(block)
        for local_col in range(block_end - block_start):
            col = block[:, local_col].copy()
            pruned_col = np.where(mask[:, local_col], col, 0.0)
            err = (col - pruned_col) / block_diag[local_col]
            block[:, local_col] = pruned_col
            remaining = slice(local_col + 1, block_end - block_start)
            if block[:, remaining].size:
                row = hinv_chol[block_start + local_col, block_start + local_col + 1 : block_end]
                block[:, remaining] -= np.outer(err, row)
            block_err[:, local_col] = err
        weight[:, block_start:block_end] = block
        if block_end < in_features:
            rows = hinv_chol[block_start:block_end, block_end:]
            weight[:, block_end:] -= block_err @ rows
    return weight


def sparsegpt_prune_model(
    model: CausalLM,
    calibration_sequences: Optional[np.ndarray] = None,
    config: SparseGPTConfig = SparseGPTConfig(),
) -> Dict[str, float]:
    """Prune every MLP matrix of ``model`` in place; returns realised sparsity per matrix."""
    per_layer_inputs: Optional[List[np.ndarray]] = None
    if calibration_sequences is not None:
        per_layer_inputs = collect_mlp_inputs(model, calibration_sequences)

    realised: Dict[str, float] = {}
    for layer_index, block in enumerate(model.blocks):
        inputs = per_layer_inputs[layer_index] if per_layer_inputs is not None else None
        glu_inputs = block.mlp.glu_activations_array(inputs) if inputs is not None else None
        for name, weight in weight_targets(block).items():
            pruned = sparsegpt_prune_linear(weight.read(), glu_inputs if name == "down" else inputs, config)
            weight.write(pruned)
            realised[f"layer{layer_index}.{name}"] = float(np.mean(pruned == 0.0))
    logger.info("SparseGPT pruned %d matrices (%s)", len(realised), config.label())
    return realised
