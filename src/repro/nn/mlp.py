"""Gated MLP blocks (SwiGLU and ReLU-fied variants).

The MLP computes (paper Eq. 1-2)::

    GLU(x) = (W_u x) * sigma(W_g x)
    MLP(x) = W_d GLU(x)

with ``sigma`` = SiLU for SwiGLU models and ReLU for the ReLU-fied ablation.

The weights are stored *unit-major*: one contiguous row per unit that a
sparsity method keeps or drops and that :mod:`repro.hwsim.memory` charges.

* ``W_u`` and ``W_g`` are ``(d_model, d_ffn)``: row ``i`` is input feature
  ``i``, the unit of Dynamic Input Pruning's input mask (Eq. 7).
* ``W_d`` is ``(d_ffn, d_model)``: row ``j`` is GLU neuron ``j``, the unit of
  the down mask (Eq. 8).

So ``MLP(x) = ((x W_u) * sigma(x W_g)) W_d`` on row vectors, and a kernel
that keeps ``k`` inputs and ``k_d`` neurons reads ``k + k`` rows of the up and
gate weights and ``k_d`` rows of the down weight, nothing else.  Code that
works per output row of an ``(out, in)`` matrix (GPTQ, SparseGPT, VQ,
magnitude pruning, LoRA, distillation) reads and writes the weights through
:class:`OutInWeight`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend
from repro.nn.activations import get_activation
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.utils.config import ConfigBase
from repro.utils.rng import new_rng, spawn_rng

#: The MLP's three projections, in the order it applies them.
PROJECTIONS = ("up", "gate", "down")


@dataclasses.dataclass(frozen=True)
class GLUMLPConfig(ConfigBase):
    """Configuration of a gated MLP block."""

    d_model: int
    d_ffn: int
    activation: str = "silu"

    def __post_init__(self):
        if self.d_model <= 0 or self.d_ffn <= 0:
            raise ValueError("d_model and d_ffn must be positive")


class OutInWeight:
    """One weight matrix seen as ``(out_features, in_features)``, the layout
    :class:`~repro.nn.linear.Linear` stores.

    For code that works per output row.  A unit-major MLP weight is read as
    a C-ordered transposed copy, so every number computed from it is the one
    computed from a ``Linear``'s weight, and an ``(out, in)`` result is
    written back unit-major.  A ``Linear``'s weight (``unit_major=False``)
    passes through.
    """

    def __init__(self, param: Parameter, unit_major: bool = False) -> None:
        self.param = param
        self.unit_major = unit_major

    @property
    def shape(self) -> Tuple[int, int]:
        rows, cols = self.param.data.shape
        return (cols, rows) if self.unit_major else (rows, cols)

    @property
    def out_features(self) -> int:
        return self.shape[0]

    @property
    def in_features(self) -> int:
        return self.shape[1]

    def read(self) -> np.ndarray:
        """A fresh C-ordered ``(out, in)`` copy of the weight."""
        data = self.param.data
        return np.ascontiguousarray(data.T) if self.unit_major else data.copy()

    def write(self, weight: np.ndarray) -> None:
        """Replace the weight with an ``(out, in)`` array, stored in its layout."""
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != self.shape:
            raise ValueError(f"expected an {self.shape} weight, got {weight.shape}")
        self.param.data = np.ascontiguousarray(weight.T) if self.unit_major else weight


def _unit_major_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """What :class:`Linear` draws for a ``fan_in -> fan_out`` projection,
    ``(fan_out, fan_in)``, stored unit-major as a C-ordered ``(fan_in, fan_out)``."""
    return np.ascontiguousarray(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)).T)


class SwiGLUMLP(Module):
    """Gated MLP with a configurable gate non-linearity (default SiLU).

    Holds three unit-major :class:`Parameter` s (see the module docstring):
    ``up`` and ``gate`` ``(d_model, d_ffn)``, ``down`` ``(d_ffn, d_model)``.
    Each is drawn as a ``Linear`` of the same shape would be, under the same
    seed, and stored transposed.

    Exposes both the autodiff path (:meth:`forward`) used for training and a
    plain-array inference path (:meth:`forward_array`,
    :meth:`glu_activations_array`) used by the sparsity methods and the
    inference engine, which need access to the intermediate activations.
    """

    def __init__(self, config: GLUMLPConfig, seed=None):
        super().__init__()
        self.config = config
        rng = new_rng(seed)
        d_model, d_ffn = config.d_model, config.d_ffn
        self.up = Parameter(_unit_major_init(spawn_rng(rng, "up"), d_model, d_ffn))
        self.gate = Parameter(_unit_major_init(spawn_rng(rng, "gate"), d_model, d_ffn))
        self.down = Parameter(_unit_major_init(spawn_rng(rng, "down"), d_ffn, d_model))
        self.activation = get_activation(config.activation)

    # ------------------------------------------------------------- properties
    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def d_ffn(self) -> int:
        return self.config.d_ffn

    @property
    def w_up(self) -> np.ndarray:
        """Up-projection weight, shape ``(d_model, d_ffn)`` (input feature i = row i)."""
        return self.up.data

    @property
    def w_gate(self) -> np.ndarray:
        """Gate-projection weight, shape ``(d_model, d_ffn)`` (input feature i = row i)."""
        return self.gate.data

    @property
    def w_down(self) -> np.ndarray:
        """Down-projection weight, shape ``(d_ffn, d_model)`` (neuron j = row j)."""
        return self.down.data

    def out_in(self, name: str) -> OutInWeight:
        """Projection ``name`` (one of :data:`PROJECTIONS`) as an ``(out, in)`` weight."""
        if name not in PROJECTIONS:
            raise KeyError(f"unknown projection '{name}'")
        return OutInWeight(getattr(self, name), unit_major=True)

    # ---------------------------------------------------------------- training
    def forward(self, x: Tensor) -> Tensor:
        up = x.matmul(self.up)
        gate = self.activation(x.matmul(self.gate))
        return (up * gate).matmul(self.down)

    # --------------------------------------------------------------- inference
    def glu_activations_array(self, x: np.ndarray, input_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Return GLU(x) = (x W_u) * sigma(x W_g) on plain arrays.

        ``input_mask`` zeroes input features before the projections (the DIP
        input-pruning path, Eq. 7); passing it here instead of pre-masking
        ``x`` lets gather backends exploit the row sparsity.
        """
        return active_backend().glu_act(
            self.w_up, self.w_gate, self.config.activation, x, input_mask=input_mask
        )

    def gate_activations_array(self, x: np.ndarray) -> np.ndarray:
        """Return sigma(x W_g) only (the partial activations used by Gate pruning)."""
        return self.activation.forward_array(active_backend().project(x, self.w_gate))

    def up_activations_array(self, x: np.ndarray) -> np.ndarray:
        """Return x W_u only (the partial activations used by Up pruning)."""
        return active_backend().project(x, self.w_up)

    def down_array(self, glu: np.ndarray) -> np.ndarray:
        """Return GLU W_d: the down projection of GLU activations."""
        return active_backend().project(glu, self.w_down)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Dense inference on plain arrays (any leading batch dims)."""
        return self.down_array(self.glu_activations_array(x))

    def forward_masked_array(
        self,
        x: np.ndarray,
        neuron_mask: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sparse inference with an explicit neuron (and optional input) mask.

        ``neuron_mask`` has shape ``(..., d_ffn)`` (or ``(d_ffn,)``) and zeroes
        out GLU neurons; ``input_mask`` has shape ``(..., d_model)`` and zeroes
        out input features before the up/gate projections (Dynamic Input
        Pruning, Eq. 7).
        """
        return active_backend().masked_mlp(
            self.w_up, self.w_gate, self.w_down, self.config.activation, x, neuron_mask, input_mask=input_mask
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"SwiGLUMLP(d_model={self.d_model}, d_ffn={self.d_ffn}, act={self.config.activation})"


class ReLUGLUMLP(SwiGLUMLP):
    """ReLU-fied gated MLP (TurboSparse-style), used in Figures 3 and 6."""

    def __init__(self, config: GLUMLPConfig, seed=None):
        super().__init__(config.replace(activation="relu"), seed=seed)


class DenseMLP(Module):
    """Plain two-layer MLP (used for DejaVu-style predictors and small heads)."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, activation: str = "relu", seed=None):
        super().__init__()
        rng = new_rng(seed)
        self.fc1 = Linear(d_in, d_hidden, bias=True, seed=spawn_rng(rng, "fc1"))
        self.fc2 = Linear(d_hidden, d_out, bias=True, seed=spawn_rng(rng, "fc2"))
        self.activation = get_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.activation(self.fc1(x)))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        hidden = self.activation.forward_array(self.fc1.forward_array(x))
        return self.fc2.forward_array(hidden)


def mlp_parameter_count(d_model: int, d_ffn: int) -> int:
    """Number of parameters in one gated MLP block (up + gate + down)."""
    return 3 * d_model * d_ffn
