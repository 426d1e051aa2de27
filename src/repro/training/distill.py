"""Knowledge-distillation fine-tuning of LoRA adapters on the sparsified model.

The paper (Section 6.1) trains rank-32 LoRA adapters for 1000 iterations with
a knowledge-distillation loss matching the *dense* model's logits while the
student runs with the sparsity method active.  This module implements the
same recipe at simulation scale:

* the teacher logits come from the unmodified dense model (no gradients),
* the student re-runs the same token batch with every MLP replaced by a
  sparse + LoRA computation (``sparse_lora_mlp_override``): the sparsity
  masks are produced by the method under study (DIP, CATS, ...) and treated
  as constants, and the LoRA update is applied to the full matrices before
  column selection (Eq. 9), and
* only the adapter parameters receive gradient updates.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd.optim import Adam, clip_grad_norm
from repro.autograd.tensor import Tensor, no_grad
from repro.data.datasets import LMDataset, iterate_batches
from repro.nn.transformer import CausalLM, TransformerBlock
from repro.sparsity.base import SparsityMethod
from repro.training.lora import MLPLoRAAdapters, adapter_parameters
from repro.utils.config import ConfigBase
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("training.distill")


@dataclasses.dataclass(frozen=True)
class DistillationConfig(ConfigBase):
    """Hyper-parameters for LoRA distillation fine-tuning."""

    iterations: int = 100
    batch_size: int = 4
    learning_rate: float = 2e-3
    grad_clip: float = 1.0
    temperature: float = 1.0
    log_every: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= 0 or self.batch_size <= 0:
            raise ValueError("iterations and batch_size must be positive")


def sparse_lora_mlp_override(
    method: SparsityMethod,
    adapters: Sequence[MLPLoRAAdapters],
):
    """Build an ``mlp_override`` callable for :meth:`CausalLM.forward`.

    For every block the override

    1. computes the sparsity masks from the (constant) activation values via
       ``method.compute_masks`` — mask selection is not differentiable and the
       paper treats it the same way,
    2. evaluates the MLP with the masks applied and the LoRA update added to
       each adapted matrix *before* the column selection (so pruned columns of
       the adapter are dropped exactly like pruned base columns).
    """

    def override(block: TransformerBlock, normed: Tensor) -> Tensor:
        mlp = block.mlp
        layer_adapters = adapters[block.layer_index]
        x_data = normed.data
        flat = x_data.reshape(-1, x_data.shape[-1])
        masks = method.compute_masks(mlp, block.layer_index, flat)

        input_mask = None
        if masks.input_mask is not None:
            input_mask = masks.input_mask.reshape(x_data.shape).astype(np.float64)
        down_mask = masks.down_mask.reshape(x_data.shape[:-1] + (mlp.d_ffn,)).astype(np.float64)

        x_eff = normed * input_mask if input_mask is not None else normed

        # Up projection (+ optional LoRA, applied before masking of outputs).
        up_w = Tensor(mlp.out_in("up").read())
        up_out = x_eff.matmul(up_w.T)
        if layer_adapters.up is not None:
            up_out = layer_adapters.up.apply(x_eff, up_out)

        gate_w = Tensor(mlp.out_in("gate").read())
        gate_out = x_eff.matmul(gate_w.T)
        if layer_adapters.gate is not None:
            gate_out = layer_adapters.gate.apply(x_eff, gate_out)
        gate_act = mlp.activation(gate_out)

        glu = up_out * gate_act * down_mask

        down_w = Tensor(mlp.out_in("down").read())
        out = glu.matmul(down_w.T)
        if layer_adapters.down is not None:
            out = layer_adapters.down.apply(glu, out)
        return out

    return override


@dataclasses.dataclass
class DistillationResult:
    """Loss history returned by :func:`finetune_lora_distillation`."""

    losses: List[float]
    final_loss: float
    wall_time_s: float


def finetune_lora_distillation(
    model: CausalLM,
    method: SparsityMethod,
    adapters: Sequence[MLPLoRAAdapters],
    dataset: LMDataset,
    config: DistillationConfig = DistillationConfig(),
) -> DistillationResult:
    """Fine-tune LoRA adapters so the sparsified student matches the dense teacher.

    The base model weights are left untouched; only adapter parameters are
    optimised.  Fuse the adapters afterwards with
    :func:`repro.training.lora.fuse_adapters` if a standalone adapted model is
    needed.
    """
    if len(adapters) != len(model.blocks):
        raise ValueError("need one adapter set per layer")
    start = time.time()
    params = adapter_parameters(adapters)
    optimizer = Adam(params, lr=config.learning_rate)
    override = sparse_lora_mlp_override(method, adapters)
    rng = new_rng(config.seed)

    losses: List[float] = []
    iteration = 0
    model.eval()
    while iteration < config.iterations:
        for batch in iterate_batches(
            dataset, config.batch_size, shuffle=True, seed=int(rng.integers(2**31)), drop_last=True
        ):
            if iteration >= config.iterations:
                break
            with no_grad():
                teacher_logits = model.forward(batch).data
            student_logits = model.forward(batch, mlp_override=override)
            loss = F.kl_divergence(student_logits, teacher_logits, temperature=config.temperature)
            for p in params:
                p.grad = None
            loss.backward()
            if config.grad_clip > 0:
                clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            losses.append(float(loss.data))
            if config.log_every and iteration % config.log_every == 0:
                logger.info("distill iteration %d loss %.5f", iteration, losses[-1])
            iteration += 1
    return DistillationResult(
        losses=losses,
        final_loss=float(np.mean(losses[-10:])) if losses else float("nan"),
        wall_time_s=time.time() - start,
    )
