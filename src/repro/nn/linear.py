"""Linear (fully connected) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng


class Linear(Module):
    """Affine map ``y = x @ W^T + b``.

    The weight is stored as ``(out_features, in_features)``.  The gated
    MLP does not use this class: it stores its weights unit-major (see
    :mod:`repro.nn.mlp`).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = False,
        seed=None,
        init_scale: Optional[float] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(seed)
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Inference-only fast path on plain arrays (no autodiff graph).

        Routed through the active compute backend (see
        :mod:`repro.backend`), which flattens leading batch dimensions so
        the whole call is one GEMM.
        """
        bias = self.bias.data if self.bias is not None else None
        return active_backend().linear(x, self.weight.data, bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"
