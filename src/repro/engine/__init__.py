"""Sparse inference engine: couples a model, a sparsity method, and the HW simulator.

* :class:`~repro.engine.inference.SparseInferenceEngine` runs a trained
  (simulation-scale) model with any sparsity method active, producing logits
  for accuracy metrics and recording the per-token masks.
* :class:`~repro.engine.inference.ContinuousDecoder` is the one request-level
  decode driver; serving and the fleet workers run on it.
* :mod:`repro.engine.throughput` converts a method + paper-scale model
  geometry + device into tokens/second via the HW simulator (the throughput
  half of Table 2 and Figure 11).
"""

from repro.engine.inference import (
    ContinuousBatch,
    ContinuousDecoder,
    DecodeRequest,
    MaskRecorder,
    SparseInferenceEngine,
    iter_length_buckets,
    serve_continuous_greedy,
)
from repro.engine.throughput import (
    ThroughputEstimate,
    throughput_for_method,
)

__all__ = [
    "SparseInferenceEngine",
    "ContinuousBatch",
    "ContinuousDecoder",
    "DecodeRequest",
    "serve_continuous_greedy",
    "MaskRecorder",
    "iter_length_buckets",
    "ThroughputEstimate",
    "throughput_for_method",
]
