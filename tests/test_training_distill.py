"""Tests for LoRA knowledge-distillation fine-tuning."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.sparsity.dip import DynamicInputPruning
from repro.training.distill import DistillationConfig, finetune_lora_distillation, sparse_lora_mlp_override
from repro.training.lora import LoRAConfig, attach_mlp_adapters


class TestDistillationConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            DistillationConfig(iterations=0)


class TestSparseLoraOverride:
    def test_zero_adapters_match_sparse_forward(self, trained_tiny_model):
        """With untrained (zero) adapters the override equals the method's sparse output."""
        method = DynamicInputPruning(target_density=0.5)
        adapters = attach_mlp_adapters(trained_tiny_model, LoRAConfig(rank=2))
        override = sparse_lora_mlp_override(method, adapters)
        block = trained_tiny_model.blocks[0]
        x = np.random.default_rng(0).normal(size=(1, 6, trained_tiny_model.config.d_model))
        out = override(block, Tensor(x)).data
        expected = method.sparse_forward(block.mlp, 0, x.reshape(-1, x.shape[-1])).reshape(x.shape)
        assert np.allclose(out, expected, atol=1e-9)

    def test_gradients_reach_adapters(self, trained_tiny_model):
        method = DynamicInputPruning(target_density=0.5)
        adapters = attach_mlp_adapters(trained_tiny_model, LoRAConfig(rank=2))
        override = sparse_lora_mlp_override(method, adapters)
        block = trained_tiny_model.blocks[0]
        x = Tensor(np.random.default_rng(1).normal(size=(1, 4, trained_tiny_model.config.d_model)))
        loss = (override(block, x) ** 2).sum()
        loss.backward()
        assert adapters[0].up.A.grad is not None
        assert adapters[0].down.B.grad is not None


class TestFinetune:
    def test_distillation_runs_and_improves(self, trained_tiny_model, tiny_splits):
        method = DynamicInputPruning(target_density=0.35)
        adapters = attach_mlp_adapters(trained_tiny_model, LoRAConfig(rank=2, seed=1))
        base_weights = trained_tiny_model.blocks[0].mlp.w_up.copy()
        result = finetune_lora_distillation(
            trained_tiny_model,
            method,
            adapters,
            tiny_splits.train,
            DistillationConfig(iterations=8, batch_size=2, learning_rate=5e-3, log_every=0),
        )
        assert len(result.losses) == 8
        assert np.isfinite(result.losses).all()
        # Base weights untouched, adapters actually trained.
        assert np.allclose(trained_tiny_model.blocks[0].mlp.w_up, base_weights)
        assert np.any(adapters[0].up.B.data != 0)
        # Loss should go down on average over the run.
        assert np.mean(result.losses[-3:]) <= np.mean(result.losses[:3]) + 1e-6

    def test_wrong_adapter_count(self, trained_tiny_model, tiny_splits):
        method = DynamicInputPruning(target_density=0.5)
        with pytest.raises(ValueError):
            finetune_lora_distillation(trained_tiny_model, method, [], tiny_splits.train)
