"""Tests for cache-aware masking (Eq. 10, Algorithm 1)."""

import numpy as np
import pytest

from repro.sparsity.cache_aware import CA_STEP, CacheAwareDIP, cache_aware_scores
from repro.sparsity.dip import DynamicInputPruning


@pytest.fixture
def ca_path(request, monkeypatch):
    """Which per-token step DIP-CA runs: the compiled kernel or the numpy loop."""
    if request.param == "numpy":
        monkeypatch.setattr(CA_STEP, "load", lambda: None)
    else:
        request.getfixturevalue("compiled_kernels")
    return request.param


class TestCacheAwareScores:
    def test_gamma_one_preserves_ranking(self):
        magnitudes = np.array([0.1, 3.0, 1.0, 0.5])
        cached = np.array([0.0, 0.0, 1.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=1.0)
        assert np.array_equal(np.argsort(scores), np.argsort(magnitudes))

    def test_small_gamma_prefers_cached(self):
        magnitudes = np.array([1.0, 0.9])
        cached = np.array([0.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=0.2)
        assert scores[1] > scores[0]

    def test_strong_activations_survive_penalty(self):
        """Eq. 10 must not displace activations orders of magnitude larger (Fig. 10)."""
        magnitudes = np.array([100.0, 0.9])
        cached = np.array([0.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=0.2)
        assert scores[0] > scores[1]

    def test_normalised_by_inf_norm(self):
        magnitudes = np.array([2.0, 4.0])
        scores = cache_aware_scores(magnitudes, np.ones(2), gamma=0.5)
        assert scores.max() == pytest.approx(1.0)

    def test_scale_invariance(self):
        magnitudes = np.array([0.5, 1.5, 2.5])
        cached = np.array([1.0, 0.0, 1.0])
        a = cache_aware_scores(magnitudes, cached, 0.3)
        b = cache_aware_scores(magnitudes * 1000, cached, 0.3)
        assert np.allclose(a, b)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            cache_aware_scores(np.ones(3), np.zeros(3), gamma=0.0)

    def test_batched_tokens(self):
        magnitudes = np.random.default_rng(0).random((5, 8))
        cached = np.zeros(8)
        assert cache_aware_scores(magnitudes, cached, 0.5).shape == (5, 8)


class TestCacheAwareDIP:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CacheAwareDIP(gamma=0.0)
        with pytest.raises(ValueError):
            CacheAwareDIP(cache_fraction=1.5)

    def test_gamma_one_matches_plain_dip(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        x = np.random.default_rng(1).normal(size=(6, trained_tiny_model.config.d_model))
        ca = CacheAwareDIP(target_density=0.5, gamma=1.0, cache_fraction=0.5)
        plain = DynamicInputPruning(target_density=0.5)
        masks_ca = ca.compute_masks(mlp, 0, x)
        masks_plain = plain.compute_masks(mlp, 0, x)
        assert np.array_equal(masks_ca.down_mask, masks_plain.down_mask)
        assert np.array_equal(masks_ca.input_mask, masks_plain.input_mask)

    def test_cache_increases_hit_rate(self, trained_tiny_model, eval_sequences):
        """Cache-aware selection must produce a higher hit rate than plain DIP (the paper's core claim)."""
        from repro.engine.inference import SparseInferenceEngine

        d_model = trained_tiny_model.config.d_model
        seq = eval_sequences[0]

        def run(gamma):
            method = CacheAwareDIP(target_density=0.5, gamma=gamma, cache_fraction=0.3)
            engine = SparseInferenceEngine(trained_tiny_model, method)
            engine.logits(seq)
            return method.stats.hit_rate

        assert run(0.2) > run(1.0)

    def test_masks_keep_per_token_budget(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        method = CacheAwareDIP(target_density=0.5, gamma=0.2, cache_fraction=0.4)
        x = np.random.default_rng(2).normal(size=(5, trained_tiny_model.config.d_model))
        masks = method.compute_masks(mlp, 0, x)
        expected_inputs = int(round(method.input_keep_fraction * mlp.d_model))
        assert np.all(masks.input_mask.sum(axis=-1) == expected_inputs)

    def test_cache_holds_only_active_units_when_over_capacity(self, trained_tiny_model):
        """The input cache is the simulator's LFU: 17 kept inputs against a capacity of 10
        leave exactly 10 resident units, all of them selected by the current token."""
        mlp = trained_tiny_model.blocks[0].mlp
        method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.3)
        x = np.random.default_rng(4).normal(size=(12, trained_tiny_model.config.d_model))
        for token in x:
            masks = method.compute_masks(mlp, 0, token[None, :])
            resident = method._caches[(0, "input")].cached_mask()
            assert masks.input_mask[0].sum() == 17
            assert resident.sum() == 10
            assert not np.any(resident & ~masks.input_mask[0])

    @pytest.mark.parametrize("ca_path", ["compiled", "numpy"], indirect=True)
    @pytest.mark.parametrize("gamma, cache_fraction", [(0.2, 0.3), (0.2, 0.8), (1.0, 0.5)])
    def test_multi_token_call_equals_one_token_calls(self, trained_tiny_model, gamma, cache_fraction, ca_path):
        """compute_masks serves a T-token call in two passes (inputs, one GLU, downs);
        that must give the masks and hits of T one-token calls."""
        mlp = trained_tiny_model.blocks[0].mlp
        x = np.random.default_rng(5).normal(size=(12, trained_tiny_model.config.d_model))
        batched = CacheAwareDIP(0.5, gamma=gamma, cache_fraction=cache_fraction)
        looped = CacheAwareDIP(0.5, gamma=gamma, cache_fraction=cache_fraction)
        masks = batched.compute_masks(mlp, 0, x)
        rows = [looped.compute_masks(mlp, 0, token[None, :]) for token in x]
        assert np.array_equal(masks.input_mask, np.concatenate([r.input_mask for r in rows]))
        assert np.array_equal(masks.down_mask, np.concatenate([r.down_mask for r in rows]))
        assert (batched.stats.hits, batched.stats.misses) == (looped.stats.hits, looped.stats.misses)
        np.testing.assert_allclose(
            masks.glu_cache, np.concatenate([r.glu_cache for r in rows]), rtol=0, atol=1e-12
        )

    def test_reset_cache(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        method = CacheAwareDIP(target_density=0.5, gamma=0.2, cache_fraction=0.4)
        x = np.random.default_rng(3).normal(size=(3, trained_tiny_model.config.d_model))
        method.compute_masks(mlp, 0, x)
        assert method.stats.hits + method.stats.misses > 0
        method.reset()
        assert method.stats.hits == 0 and method.stats.misses == 0

    def test_describe_includes_gamma(self):
        info = CacheAwareDIP(gamma=0.3).describe()
        assert info["gamma"] == 0.3
