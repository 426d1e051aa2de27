"""Sparse inference engine: couples a model, a sparsity method, and the HW simulator.

* :class:`~repro.engine.inference.SparseInferenceEngine` runs a trained
  (simulation-scale) model with any sparsity method active, producing logits
  for accuracy metrics and recording the per-token masks.
* :mod:`repro.engine.throughput` converts a method + paper-scale model
  geometry + device into tokens/second via the HW simulator, and provides the
  coupled accuracy-vs-throughput sweeps used by Table 2 and Figure 11.
"""

from repro.engine.inference import (
    ContinuousBatch,
    MaskRecorder,
    SparseInferenceEngine,
    iter_length_buckets,
    serve_continuous_greedy,
)
from repro.engine.throughput import (
    ThroughputEstimate,
    estimate_throughput,
    throughput_for_method,
    density_throughput_sweep,
)

__all__ = [
    "SparseInferenceEngine",
    "ContinuousBatch",
    "serve_continuous_greedy",
    "MaskRecorder",
    "iter_length_buckets",
    "ThroughputEstimate",
    "estimate_throughput",
    "throughput_for_method",
    "density_throughput_sweep",
]
