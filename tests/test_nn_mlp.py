"""Tests for the gated MLP blocks."""

import numpy as np
import pytest

from repro.autograd.gradcheck import check_gradients
from repro.autograd.tensor import Tensor
from repro.nn.mlp import DenseMLP, GLUMLPConfig, ReLUGLUMLP, SwiGLUMLP, mlp_parameter_count


@pytest.fixture()
def mlp():
    return SwiGLUMLP(GLUMLPConfig(d_model=16, d_ffn=40), seed=0)


class TestConfig:
    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GLUMLPConfig(d_model=0, d_ffn=4)

    def test_parameter_count(self):
        assert mlp_parameter_count(16, 40) == 3 * 16 * 40


class TestSwiGLUMLP:
    def test_output_shape(self, mlp):
        x = np.random.default_rng(0).normal(size=(7, 16))
        assert mlp.forward_array(x).shape == (7, 16)

    def test_paths_match(self, mlp):
        x = np.random.default_rng(1).normal(size=(5, 16))
        assert np.allclose(mlp(Tensor(x)).data, mlp.forward_array(x), atol=1e-10)

    def test_glu_definition(self, mlp):
        x = np.random.default_rng(2).normal(size=(3, 16))
        glu = mlp.glu_activations_array(x)
        expected = mlp.up_activations_array(x) * mlp.gate_activations_array(x)
        assert np.allclose(glu, expected)
        assert np.allclose(mlp.forward_array(x), mlp.down_array(glu))

    def test_weight_views(self, mlp):
        """Unit-major: one row per input feature of up/gate, per neuron of down."""
        assert mlp.w_up.shape == (16, 40)
        assert mlp.w_gate.shape == (16, 40)
        assert mlp.w_down.shape == (40, 16)
        assert all(w.flags.c_contiguous for w in (mlp.w_up, mlp.w_gate, mlp.w_down))

    def test_masked_forward_full_mask_is_dense(self, mlp):
        x = np.random.default_rng(3).normal(size=(4, 16))
        mask = np.ones((4, 40), dtype=bool)
        assert np.allclose(mlp.forward_masked_array(x, mask), mlp.forward_array(x))

    def test_masked_forward_zero_mask_is_zero(self, mlp):
        x = np.random.default_rng(4).normal(size=(2, 16))
        out = mlp.forward_masked_array(x, np.zeros((2, 40)))
        assert np.allclose(out, 0.0)

    def test_masked_forward_equals_column_selection(self, mlp):
        """Masked compute must equal physically gathering the active columns."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=16)
        neuron_mask = rng.random(40) > 0.5
        masked = mlp.forward_masked_array(x[None, :], neuron_mask[None, :])[0]
        idx = np.flatnonzero(neuron_mask)
        glu = mlp.glu_activations_array(x[None, :])[0][idx]
        gathered = glu @ mlp.w_down[idx]
        assert np.allclose(masked, gathered)

    def test_input_mask_prunes_columns(self, mlp):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 16))
        input_mask = rng.random((1, 16)) > 0.5
        out = mlp.forward_masked_array(x, np.ones((1, 40)), input_mask=input_mask)
        assert np.allclose(out, mlp.forward_array(x * input_mask))

    def test_gradient_flow(self, mlp):
        x = Tensor(np.random.default_rng(7).normal(size=(2, 16)), requires_grad=True)
        check_gradients(lambda x: (mlp(x) ** 2).sum(), [x], atol=1e-4)


class TestReLUVariant:
    def test_relufied_activation_sparsity(self):
        """ReLU-fied GLU has many hard zeros; SwiGLU has essentially none (Fig. 3)."""
        config = GLUMLPConfig(d_model=32, d_ffn=96)
        swiglu = SwiGLUMLP(config, seed=0)
        relu = ReLUGLUMLP(config, seed=0)
        x = np.random.default_rng(0).normal(size=(64, 32))
        swiglu_zeros = np.mean(swiglu.glu_activations_array(x) == 0.0)
        relu_zeros = np.mean(relu.glu_activations_array(x) == 0.0)
        assert relu_zeros > 0.3
        assert swiglu_zeros < 0.01

    def test_relu_config_forced(self):
        relu = ReLUGLUMLP(GLUMLPConfig(d_model=8, d_ffn=16, activation="silu"))
        assert relu.config.activation == "relu"


class TestDenseMLP:
    def test_shapes_and_paths(self):
        net = DenseMLP(8, 16, 5, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 8))
        out_t = net(Tensor(x)).data
        out_a = net.forward_array(x)
        assert out_t.shape == (3, 5)
        assert np.allclose(out_t, out_a)
