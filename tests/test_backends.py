"""Parity and kernel tests for the pluggable compute backends.

The acceptance property is token-identity: greedy ``generate`` under the
gather backend must reproduce the numpy reference *exactly*, for every
registered sparsity method, on single prompts, rectangular batches, ragged
batches and the continuous-batching decode core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    active_backend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.backend.gather import DEFAULT_CROSSOVER_DENSITY, GatherGEMMBackend
from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, serve_continuous_greedy
from repro.pipeline.spec import ExperimentSpec
from repro.sparsity.registry import REGISTRY

#: Backends expected to be token-identical to the numpy reference.
EXACT_BACKENDS = ("gather",)

METHODS = tuple(sorted(REGISTRY.names()))


def _engine(model, method_name, calibration_sequences, backend):
    """Engine with its own method instance, calibrated under the reference.

    Calibration always runs under the numpy backend so every engine starts
    from identical method state and the comparison isolates the decode path.
    """
    method = REGISTRY.create(method_name, target_density=0.5)
    if method.requires_calibration:
        with use_backend("numpy"):
            method.calibrate(model, calibration_sequences)
    return SparseInferenceEngine(model, method, backend=backend)


# ------------------------------------------------------------------ registry
def test_backend_registry():
    assert available_backends() == ("gather", "numpy")
    assert get_backend("gather") is get_backend("gather")  # singleton per name
    with pytest.raises(KeyError, match="available"):
        get_backend("missing")


def test_selection_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend().name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "gather")
    assert default_backend().name == "gather"
    assert active_backend().name == "gather"
    with use_backend("numpy"):  # explicit scope beats the env var
        assert active_backend().name == "numpy"
        with use_backend(None):  # None inherits the enclosing scope
            assert active_backend().name == "numpy"
    assert active_backend().name == "gather"
    assert resolve_backend(None) is active_backend()
    assert resolve_backend("gather").name == "gather"


def test_spec_backend_field_is_validated_and_hashed():
    spec = ExperimentSpec(name="t", backend="gather")
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    assert spec.content_hash() != ExperimentSpec(name="t").content_hash()
    for removed in ("nope", "int8", "compiled"):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSpec(name="t", backend=removed)


def test_engine_runs_under_its_own_backend(monkeypatch, trained_tiny_model, calibration_sequences):
    """An injected backend instance is the one the decode path actually uses."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    probe = GatherGEMMBackend()
    engine = _engine(trained_tiny_model, "dip", calibration_sequences, probe)
    engine.generate(calibration_sequences[0][:8], 4, temperature=0.0)
    assert probe.stats["gather_calls"] + probe.stats["dense_calls"] > 0


# -------------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("method_name", METHODS)
def test_greedy_generate_token_identity(
    trained_tiny_model, calibration_sequences, method_name, backend
):
    prompt = calibration_sequences[0][:12]
    ref = _engine(trained_tiny_model, method_name, calibration_sequences, "numpy")
    expected = ref.generate(prompt, 12, temperature=0.0)
    out = _engine(trained_tiny_model, method_name, calibration_sequences, backend).generate(
        prompt, 12, temperature=0.0
    )
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("method_name", METHODS)
def test_ragged_batch_token_identity(
    trained_tiny_model, calibration_sequences, method_name, backend
):
    prompts = [
        calibration_sequences[0][:6],
        calibration_sequences[1][:11],
        calibration_sequences[2][:9],
    ]
    ref = _engine(trained_tiny_model, method_name, calibration_sequences, "numpy")
    expected = ref.generate_batch(prompts, 8, temperature=0.0)
    out = _engine(trained_tiny_model, method_name, calibration_sequences, backend).generate_batch(
        prompts, 8, temperature=0.0
    )
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
def test_continuous_batch_token_identity(trained_tiny_model, calibration_sequences, backend):
    """The slot-wise decode core inherits the engine backend via from_engine."""
    prompts = [
        calibration_sequences[0][:6],
        calibration_sequences[1][:11],
        calibration_sequences[2][:9],
        calibration_sequences[3][:7],
    ]
    ref = _engine(trained_tiny_model, "dip", calibration_sequences, "numpy")
    expected = [ref.generate(p, 6, temperature=0.0) for p in prompts]
    engine = _engine(trained_tiny_model, "dip", calibration_sequences, backend)
    batch = ContinuousBatch.from_engine(engine, max_batch_size=2)
    results = serve_continuous_greedy(batch, prompts, [6] * len(prompts))
    for out, exp in zip(results, expected):
        np.testing.assert_array_equal(out, exp)


# ----------------------------------------------------------- gather mechanics
def _mlp_case(rng, d_model=16, d_ffn=40, n_tokens=4):
    w_up = rng.normal(size=(d_ffn, d_model))
    w_gate = rng.normal(size=(d_ffn, d_model))
    w_down = rng.normal(size=(d_model, d_ffn))
    x = rng.normal(size=(n_tokens, d_model))
    return w_up, w_gate, w_down, x


def test_gather_gemm_primitive(rng):
    backend = get_backend("numpy")
    x = rng.normal(size=(3, 10))
    weight = rng.normal(size=(8, 10))
    idx = np.array([1, 4, 6])
    np.testing.assert_allclose(
        backend.gather_gemm(x, weight, idx, axis=0), x @ weight[idx].T
    )
    x_cols = rng.normal(size=(3, idx.size))
    np.testing.assert_allclose(
        backend.gather_gemm(x_cols, weight.T, idx, axis=1), x_cols @ weight.T[:, idx].T
    )


def test_crossover_density_switches_to_masked_dense(rng):
    w_up, w_gate, w_down, x = _mlp_case(rng)
    backend = GatherGEMMBackend(crossover_density=0.5)
    dense_mask = np.zeros((x.shape[0], w_up.shape[0]), dtype=bool)
    dense_mask[:, : int(0.75 * w_up.shape[0])] = True  # union density 0.75 > 0.5
    backend.masked_mlp(w_up, w_gate, w_down, "silu", x, dense_mask)
    assert backend.stats == {
        "gather_calls": 0, "dense_calls": 1,
        "cache_hits": 0, "cache_misses": 0, "cache_promotions": 0,
    }


def test_promotion_cache_gathers_on_second_sighting(rng):
    w_up, w_gate, w_down, x = _mlp_case(rng)
    backend = GatherGEMMBackend(crossover_density=DEFAULT_CROSSOVER_DENSITY)
    mask = np.zeros((x.shape[0], w_up.shape[0]), dtype=bool)
    mask[:, ::4] = True  # shared mask, union density 0.25
    expected = get_backend("numpy").masked_mlp(w_up, w_gate, w_down, "silu", x, mask)

    first = backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    assert backend.stats["dense_calls"] == 1 and backend.stats["gather_calls"] == 0
    second = backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    assert backend.stats["gather_calls"] == 1  # promoted on the second sighting
    assert backend.stats["cache_promotions"] == 3  # w_up, w_gate, w_down
    third = backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    assert backend.stats["cache_hits"] == 1  # third call runs off the compiled plan

    for out in (first, second, third):
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_cache_off_gathers_immediately(rng):
    w_up, w_gate, w_down, x = _mlp_case(rng)
    backend = GatherGEMMBackend(cache_gathered=False)
    mask = np.zeros((x.shape[0], w_up.shape[0]), dtype=bool)
    mask[:, ::4] = True
    backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    assert backend.stats["gather_calls"] == 1 and backend.stats["dense_calls"] == 0


def test_per_token_masks_are_honoured_below_crossover(rng):
    """Tokens keeping fewer units than the union get their sub-mask re-applied."""
    w_up, w_gate, w_down, x = _mlp_case(rng)
    mask = np.zeros((x.shape[0], w_up.shape[0]), dtype=bool)
    mask[:, ::8] = True
    mask[0, 1] = True  # token 0 keeps one extra neuron the others do not
    backend = GatherGEMMBackend()
    expected = get_backend("numpy").masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)  # promotion pass
    out = backend.masked_mlp(w_up, w_gate, w_down, "silu", x, mask)
    assert backend.stats["gather_calls"] == 1
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_masked_down_gather_matches_reference(rng):
    w_up, _w_gate, w_down, _x = _mlp_case(rng)
    glu = rng.normal(size=(4, w_down.shape[1]))
    mask = np.zeros((4, w_down.shape[1]), dtype=bool)
    mask[:, ::4] = True
    backend = GatherGEMMBackend()
    expected = get_backend("numpy").masked_down(w_down, glu.copy(), mask)
    backend.masked_down(w_down, glu.copy(), mask)  # promotion pass
    out = backend.masked_down(w_down, glu.copy(), mask)
    assert backend.stats["gather_calls"] == 1
    np.testing.assert_allclose(out, expected, atol=1e-12)
