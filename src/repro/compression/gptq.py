"""GPTQ-style blockwise quantization ("BQ" in the paper's Figure 9).

The algorithm follows Frantar et al. (2022): weights of each linear layer are
quantized column by column; after quantizing a column the remaining
(unquantized) columns are updated to compensate the introduced error, using
the inverse Hessian ``H = X^T X + lambda I`` estimated from calibration
activations.  Quantization itself is uniform per-row blocks
(:mod:`repro.compression.quantizer`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.compression.quantizer import QuantizationSpec, dequantize_uniform, quantize_tensor_uniform
from repro.compression.targets import weight_targets
from repro.nn.transformer import CausalLM
from repro.sparsity.thresholding import collect_mlp_inputs
from repro.utils.config import ConfigBase
from repro.utils.logging import get_logger

logger = get_logger("compression.gptq")


@dataclasses.dataclass(frozen=True)
class GPTQConfig(ConfigBase):
    """Hyper-parameters for GPTQ / blockwise quantization."""

    bits: int = 4
    block_size: int = 32
    #: Hessian damping as a fraction of the mean diagonal.
    percdamp: float = 0.01
    symmetric: bool = False

    def spec(self) -> QuantizationSpec:
        return QuantizationSpec(bits=self.bits, block_size=self.block_size, symmetric=self.symmetric)


def _hessian(inputs: np.ndarray, percdamp: float) -> np.ndarray:
    """Damped Gauss-Newton Hessian ``X^T X`` of the layer inputs."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    hessian = inputs.T @ inputs
    damp = percdamp * np.mean(np.diag(hessian)) + 1e-8
    hessian[np.diag_indices_from(hessian)] += damp
    return hessian


def quantize_linear_gptq(
    weight: np.ndarray,
    calibration_inputs: Optional[np.ndarray],
    config: GPTQConfig = GPTQConfig(),
) -> np.ndarray:
    """Quantize one weight matrix ``(out, in)`` with error compensation.

    Without calibration inputs the function falls back to round-to-nearest
    (equivalent to an identity Hessian).
    """
    weight = np.asarray(weight, dtype=np.float64).copy()
    out_features, in_features = weight.shape
    if calibration_inputs is None or calibration_inputs.shape[0] < 2:
        hessian = np.eye(in_features)
    else:
        hessian = _hessian(calibration_inputs, config.percdamp)

    # Upper-triangular Cholesky factor U with H^-1 = U^T U; U[j, j] and
    # U[j, j+1:] drive the GPTQ error-compensation recurrence.
    try:
        hinv_chol = np.linalg.cholesky(np.linalg.inv(hessian)).T
    except np.linalg.LinAlgError:
        hessian[np.diag_indices_from(hessian)] += np.mean(np.diag(hessian))
        hinv_chol = np.linalg.cholesky(np.linalg.inv(hessian)).T
    diag = np.maximum(np.diag(hinv_chol), 1e-12)

    quantized = weight.copy()
    spec = config.spec()
    # Process columns in blocks; within a block quantize column-by-column and
    # propagate the quantization error to the not-yet-quantized columns.
    for block_start in range(0, in_features, config.block_size):
        block_end = min(block_start + config.block_size, in_features)
        block = quantized[:, block_start:block_end].copy()
        block_err = np.zeros_like(block)
        for local_col in range(block_end - block_start):
            col = block[:, local_col]
            codes, scale, zero = quantize_tensor_uniform(col, spec.bits, spec.symmetric)
            q_col = dequantize_uniform(codes, scale, zero)
            err = (col - q_col) / diag[block_start + local_col]
            block[:, local_col] = q_col
            # Compensate remaining columns inside the block.
            remaining = slice(local_col + 1, block_end - block_start)
            if block[:, remaining].size:
                row = hinv_chol[block_start + local_col, block_start + local_col + 1 : block_end]
                block[:, remaining] -= np.outer(err, row)
            block_err[:, local_col] = err
        quantized[:, block_start:block_end] = block
        # Compensate all columns after the block.
        if block_end < in_features:
            rows = hinv_chol[block_start:block_end, block_end:]
            quantized[:, block_end:] -= block_err @ rows
    return quantized


def quantize_model_blockwise(
    model: CausalLM,
    calibration_sequences: Optional[np.ndarray] = None,
    config: GPTQConfig = GPTQConfig(),
    mlp_only: bool = True,
) -> Dict[str, float]:
    """Quantize a model's weights in place (fake quantization).

    Returns the per-layer relative quantization error.  With ``mlp_only`` the
    attention/embedding weights are left untouched, matching how the paper
    isolates MLP compression along the "MLP density" axis; set it to False for
    the full-model INT4 setting of Table 2.
    """
    per_layer_inputs: Optional[List[np.ndarray]] = None
    if calibration_sequences is not None:
        per_layer_inputs = collect_mlp_inputs(model, calibration_sequences)

    errors: Dict[str, float] = {}
    for layer_index, block in enumerate(model.blocks):
        inputs = per_layer_inputs[layer_index] if per_layer_inputs is not None else None
        for name, weight in weight_targets(block, mlp_only).items():
            calib = inputs
            if name == "down":
                # The down projection sees GLU activations, not the MLP input.
                calib = block.mlp.glu_activations_array(inputs) if inputs is not None else None
            if name in ("q", "k", "v", "o"):
                calib = None  # attention inputs are not collected; use RTN fallback
            original = weight.read()
            quantized = quantize_linear_gptq(original, calib, config)
            weight.write(quantized)
            denom = np.linalg.norm(original) + 1e-12
            errors[f"layer{layer_index}.{name}"] = float(np.linalg.norm(original - quantized) / denom)
    logger.info("quantized %d weight matrices to %d bits", len(errors), config.bits)
    return errors
