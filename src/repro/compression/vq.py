"""Vector quantization of weights ("VQ" in the paper's Figure 9, after GPTVQ).

Weights of each output row are grouped into short sub-vectors; a per-matrix
codebook of centroids is fitted with k-means (Lloyd's algorithm) and every
sub-vector is replaced by its nearest centroid.  At ``bits`` bits per weight
and sub-vector dimension ``d`` the codebook holds ``2**(bits*d)`` centroids.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.compression.targets import weight_targets
from repro.nn.transformer import CausalLM
from repro.utils.config import ConfigBase
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("compression.vq")


@dataclasses.dataclass(frozen=True)
class VQConfig(ConfigBase):
    """Vector-quantization hyper-parameters."""

    bits_per_weight: float = 3.0
    vector_dim: int = 2
    kmeans_iterations: int = 15
    #: Sub-sample size used to fit the codebook (keeps k-means cheap).
    max_fit_vectors: int = 8192
    seed: int = 0

    def __post_init__(self):
        if self.vector_dim <= 0:
            raise ValueError("vector_dim must be positive")
        if self.bits_per_weight <= 0:
            raise ValueError("bits_per_weight must be positive")

    @property
    def codebook_size(self) -> int:
        return int(round(2 ** (self.bits_per_weight * self.vector_dim)))


def kmeans_1d(points: np.ndarray, n_clusters: int, iterations: int, rng) -> np.ndarray:
    """Plain Lloyd's k-means returning the centroids (points are (N, d))."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_points = points.shape[0]
    n_clusters = min(n_clusters, n_points)
    centroids = points[rng.choice(n_points, size=n_clusters, replace=False)].copy()
    for _ in range(iterations):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        assignment = distances.argmin(axis=1)
        for cluster in range(n_clusters):
            members = points[assignment == cluster]
            if members.size:
                centroids[cluster] = members.mean(axis=0)
    return centroids


def quantize_linear_vq(weight: np.ndarray, config: VQConfig = VQConfig(), rng=None) -> Tuple[np.ndarray, np.ndarray]:
    """Vector-quantize one weight matrix.

    Returns ``(quantized_weight, codebook)``.  The input dimension is padded
    implicitly by requiring it to be divisible by ``vector_dim``.
    """
    rng = new_rng(rng)
    weight = np.asarray(weight, dtype=np.float64)
    out_features, in_features = weight.shape
    dim = config.vector_dim
    if in_features % dim != 0:
        raise ValueError(f"input dimension {in_features} not divisible by vector_dim {dim}")
    vectors = weight.reshape(out_features * (in_features // dim), dim)
    if vectors.shape[0] > config.max_fit_vectors:
        fit_idx = rng.choice(vectors.shape[0], size=config.max_fit_vectors, replace=False)
        fit_vectors = vectors[fit_idx]
    else:
        fit_vectors = vectors
    codebook = kmeans_1d(fit_vectors, config.codebook_size, config.kmeans_iterations, rng)

    # Assign every sub-vector to its nearest centroid (chunked to bound memory).
    quantized = np.empty_like(vectors)
    chunk = 65536
    for start in range(0, vectors.shape[0], chunk):
        part = vectors[start : start + chunk]
        distances = ((part[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=-1)
        quantized[start : start + chunk] = codebook[distances.argmin(axis=1)]
    return quantized.reshape(out_features, in_features), codebook


def quantize_model_vq(
    model: CausalLM,
    config: VQConfig = VQConfig(),
    mlp_only: bool = True,
) -> Dict[str, float]:
    """Vector-quantize a model's weights in place; returns per-matrix errors."""
    rng = new_rng(config.seed)
    errors: Dict[str, float] = {}
    for layer_index, block in enumerate(model.blocks):
        for name, weight in weight_targets(block, mlp_only).items():
            original = weight.read()
            quantized, _ = quantize_linear_vq(original, config, rng)
            weight.write(quantized)
            denom = np.linalg.norm(original) + 1e-12
            errors[f"layer{layer_index}.{name}"] = float(np.linalg.norm(original - quantized) / denom)
    logger.info("vector-quantized %d matrices at %.1f bits/weight", len(errors), config.bits_per_weight)
    return errors
