"""Tests for LoRA adapters and fusion (Eq. 9)."""

import numpy as np
import pytest

from repro.nn.linear import Linear
from repro.nn.transformer import CausalLM
from repro.training.lora import (
    LoRAAdapter,
    LoRAConfig,
    adapter_parameters,
    attach_mlp_adapters,
    fuse_adapters,
    total_adapter_parameters,
)


class TestLoRAConfig:
    def test_scaling(self):
        assert LoRAConfig(rank=8, alpha=16).scaling == 2.0

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            LoRAConfig(rank=0)

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            LoRAConfig(matrices=("up", "bogus"))


class TestLoRAAdapter:
    def test_initial_update_is_zero(self):
        linear = Linear(8, 12, seed=0)
        adapter = LoRAAdapter(linear, LoRAConfig(rank=4), seed=0)
        assert np.allclose(adapter.delta(), 0.0)
        x = np.random.default_rng(0).normal(size=(3, 8))
        base = linear.forward_array(x)
        assert np.allclose(adapter.apply_array(x, base), base)

    def test_apply_matches_dense_delta(self):
        linear = Linear(6, 10, seed=1)
        adapter = LoRAAdapter(linear, LoRAConfig(rank=3, alpha=6), seed=1)
        adapter.B.data = np.random.default_rng(2).normal(size=adapter.B.data.shape)
        x = np.random.default_rng(3).normal(size=(4, 6))
        base = linear.forward_array(x)
        adapted = adapter.apply_array(x, base)
        expected = base + x @ adapter.delta().T
        assert np.allclose(adapted, expected)

    def test_tensor_and_array_paths_match(self):
        from repro.autograd.tensor import Tensor

        linear = Linear(5, 7, seed=2)
        adapter = LoRAAdapter(linear, LoRAConfig(rank=2), seed=3)
        adapter.B.data = np.random.default_rng(4).normal(size=adapter.B.data.shape)
        x = np.random.default_rng(5).normal(size=(3, 5))
        base = linear.forward_array(x)
        out_t = adapter.apply(Tensor(x), Tensor(base)).data
        assert np.allclose(out_t, adapter.apply_array(x, base))

    def test_parameter_count(self):
        linear = Linear(8, 12)
        adapter = LoRAAdapter(linear, LoRAConfig(rank=4))
        assert adapter.parameter_count() == 4 * 8 + 12 * 4


class TestAttachAndFuse:
    def test_attach_all_matrices(self, tiny_model):
        adapters = attach_mlp_adapters(tiny_model, LoRAConfig(rank=2))
        assert len(adapters) == len(tiny_model.blocks)
        assert all(a.up is not None and a.gate is not None and a.down is not None for a in adapters)

    def test_attach_subset(self, tiny_model):
        adapters = attach_mlp_adapters(tiny_model, LoRAConfig(rank=2, matrices=("up", "down")))
        assert all(a.gate is None for a in adapters)

    def test_adapter_parameters_flatten(self, tiny_model):
        adapters = attach_mlp_adapters(tiny_model, LoRAConfig(rank=2))
        params = adapter_parameters(adapters)
        assert len(params) == len(tiny_model.blocks) * 6  # A and B for three matrices
        assert total_adapter_parameters(adapters) == sum(p.size for p in params)

    def test_fuse_zero_adapters_is_noop(self, tiny_config):
        model = CausalLM(tiny_config, seed=31)
        before = model.blocks[0].mlp.w_up.copy()
        adapters = attach_mlp_adapters(model, LoRAConfig(rank=2))
        fuse_adapters(model, adapters)
        assert np.allclose(model.blocks[0].mlp.w_up, before)

    def test_fuse_matches_adapter_outputs(self, tiny_config):
        """After fusing, the plain dense MLP must equal base + LoRA outputs (Eq. 9)."""
        model = CausalLM(tiny_config, seed=32)
        adapters = attach_mlp_adapters(model, LoRAConfig(rank=2, seed=8))
        rng = np.random.default_rng(9)
        for layer in adapters:
            for adapter in (layer.up, layer.gate, layer.down):
                adapter.B.data = rng.normal(0, 0.05, size=adapter.B.data.shape)
        mlp = model.blocks[0].mlp
        x = rng.normal(size=(5, tiny_config.d_model))
        up_expected = adapters[0].up.apply_array(x, mlp.up_activations_array(x))
        fuse_adapters(model, adapters)
        assert np.allclose(mlp.up_activations_array(x), up_expected)
        assert mlp.w_up.flags.c_contiguous  # fused back unit-major

    def test_fuse_wrong_length(self, tiny_model):
        with pytest.raises(ValueError):
            fuse_adapters(tiny_model, [])
