"""LoRA adapters for the MLP projections (paper Eq. 9).

Each adapted weight matrix ``W``, seen as ``(out, in)``
(:class:`~repro.nn.mlp.OutInWeight`), gains a low-rank update ``B @ A``
with ``A`` of shape ``(rank, in)`` and ``B`` of shape ``(out, rank)``.
Crucially (Eq. 9) the adapter is defined on the *full* matrix and the
column selection of the sparsity method is applied to the adapted matrix,
so after fine-tuning the adapters can be fused into the original weights at
zero memory / latency overhead.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.linear import Linear
from repro.nn.mlp import PROJECTIONS, OutInWeight
from repro.nn.module import Module, Parameter
from repro.nn.transformer import CausalLM
from repro.utils.config import ConfigBase
from repro.utils.rng import new_rng, spawn_rng


@dataclasses.dataclass(frozen=True)
class LoRAConfig(ConfigBase):
    """LoRA hyper-parameters (the paper uses rank 32 on the full-size models)."""

    rank: int = 8
    alpha: float = 16.0
    #: Which MLP matrices receive adapters.  DIP adapts all three; CATS only
    #: up and down (its gate projection stays dense / exact).
    matrices: Tuple[str, ...] = ("up", "gate", "down")
    seed: int = 0

    def __post_init__(self):
        if self.rank <= 0:
            raise ValueError("rank must be positive")
        for m in self.matrices:
            if m not in ("up", "gate", "down"):
                raise ValueError(f"unknown matrix '{m}'")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class LoRAAdapter(Module):
    """Low-rank additive update for one ``(out, in)`` weight: a ``Linear`` or
    an MLP projection's :class:`~repro.nn.mlp.OutInWeight`."""

    def __init__(self, linear: Union[Linear, OutInWeight], config: LoRAConfig, seed=None):
        super().__init__()
        self.config = config
        self.out_features = linear.out_features
        self.in_features = linear.in_features
        rng = new_rng(seed)
        # Standard LoRA init: A ~ N(0, 1/rank), B = 0 so the initial update is zero.
        self.A = Parameter(rng.normal(0.0, 1.0 / config.rank, size=(config.rank, linear.in_features)))
        self.B = Parameter(np.zeros((linear.out_features, config.rank)))

    def delta(self) -> np.ndarray:
        """The dense low-rank update ``scaling * B @ A`` (used for fusion)."""
        return self.config.scaling * (self.B.data @ self.A.data)

    def apply(self, x: Tensor, base_output: Tensor) -> Tensor:
        """Return ``base_output + scaling * (x @ A^T) @ B^T`` (training path)."""
        low = x.matmul(self.A.T)
        return base_output + low.matmul(self.B.T) * self.config.scaling

    def apply_array(self, x: np.ndarray, base_output: np.ndarray) -> np.ndarray:
        """Inference-path counterpart of :meth:`apply`."""
        return base_output + self.config.scaling * ((x @ self.A.data.T) @ self.B.data.T)

    def parameter_count(self) -> int:
        return int(self.A.size + self.B.size)


@dataclasses.dataclass
class MLPLoRAAdapters:
    """Adapters for one MLP layer (any of up / gate / down may be missing)."""

    up: Optional[LoRAAdapter] = None
    gate: Optional[LoRAAdapter] = None
    down: Optional[LoRAAdapter] = None

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for adapter in (self.up, self.gate, self.down):
            if adapter is not None:
                params.extend(adapter.parameters())
        return params

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters()))


def attach_mlp_adapters(model: CausalLM, config: LoRAConfig = LoRAConfig()) -> List[MLPLoRAAdapters]:
    """Create (untrained) LoRA adapters for every MLP layer of ``model``.

    The adapters are *not* registered inside the model; they live alongside it
    and are combined with the base weights by the distillation override or by
    :func:`fuse_adapters`.
    """
    rng = new_rng(config.seed)
    per_layer: List[MLPLoRAAdapters] = []
    for layer_index, block in enumerate(model.blocks):
        layer_rng = spawn_rng(rng, f"lora-layer{layer_index}")
        adapters = MLPLoRAAdapters()
        for name in PROJECTIONS:
            if name in config.matrices:
                adapter = LoRAAdapter(block.mlp.out_in(name), config, seed=spawn_rng(layer_rng, name))
                setattr(adapters, name, adapter)
        per_layer.append(adapters)
    return per_layer


def adapter_parameters(adapters: Sequence[MLPLoRAAdapters]) -> List[Parameter]:
    """Flatten the trainable parameters of a list of per-layer adapters."""
    params: List[Parameter] = []
    for layer_adapters in adapters:
        params.extend(layer_adapters.parameters())
    return params


def fuse_adapters(model: CausalLM, adapters: Sequence[MLPLoRAAdapters]) -> CausalLM:
    """Fuse LoRA updates into the model weights in place (Eq. 9, zero overhead).

    Returns the same model for chaining.
    """
    if len(adapters) != len(model.blocks):
        raise ValueError("need exactly one adapter set per layer")
    for block, layer_adapters in zip(model.blocks, adapters):
        for name in PROJECTIONS:
            adapter = getattr(layer_adapters, name)
            if adapter is not None:
                weight = block.mlp.out_in(name)
                weight.write(weight.read() + adapter.delta())
    return model


def total_adapter_parameters(adapters: Sequence[MLPLoRAAdapters]) -> int:
    """Total trainable parameters across all layers' adapters."""
    return int(sum(a.parameter_count() for a in adapters))
