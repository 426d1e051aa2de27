"""Reference numpy backend: the pre-seam hot-path code, verbatim.

Every other backend is parity-tested against this one.  The MLP weights are
unit-major (see :mod:`repro.nn.mlp`), so its products are ``x @ w``
(:meth:`~repro.backend.base.ComputeBackend.project`).  The masked-dense MLP
forward reuses buffers (``np.multiply(..., out=...)``) instead of allocating
``up * gate * mask`` temporaries, but keeps the exact operation order of the
original code, so results stay bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.backend.base import ComputeBackend, activation_fn


class NumpyBackend(ComputeBackend):
    """Masked-dense reference implementation (plain numpy, BLAS GEMMs)."""

    name = "numpy"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return F.softmax_array(x, axis=axis)

    def rmsnorm(self, x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
        mean_sq = np.einsum("...i,...i->...", x, x)[..., None] / x.shape[-1]
        out = x / np.sqrt(mean_sq + eps)
        out *= weight
        return out

    def glu_act(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        activation: str,
        x: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        x_eff = x * input_mask if input_mask is not None else x
        up = self.project(x_eff, w_up)
        gate = activation_fn(activation)(self.project(x_eff, w_gate))
        np.multiply(up, gate, out=up)  # both operands are fresh arrays
        return up

    def masked_mlp(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        w_down: np.ndarray,
        activation: str,
        x: np.ndarray,
        neuron_mask: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        glu = self.glu_act(w_up, w_gate, activation, x, input_mask=input_mask)
        np.multiply(glu, neuron_mask, out=glu)  # glu is fresh: in-place, no temporaries
        return self.project(glu, w_down)

    def masked_down(self, w_down: np.ndarray, glu: np.ndarray, down_mask: np.ndarray) -> np.ndarray:
        np.multiply(glu, down_mask, out=glu)  # glu is owned by this call
        return self.project(glu, w_down)
