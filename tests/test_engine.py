"""Tests for the sparse inference engine and throughput estimation."""

import numpy as np
import pytest

from repro.engine.inference import ContinuousBatch, MaskRecorder, SparseInferenceEngine
from repro.engine.throughput import throughput_for_method
from repro.hwsim.device import APPLE_A18
from repro.hwsim.trace import SyntheticTraceConfig
from repro.nn.model_zoo import get_model_spec
from repro.sparsity.base import DenseBaseline
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.glu_pruning import GLUPruning


class TestSparseInferenceEngine:
    def test_dense_method_matches_model(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        seq = eval_sequences[0]
        assert np.allclose(engine.logits(seq), trained_tiny_model.forward_array(seq))

    def test_perplexity_dense_vs_sparse(self, trained_tiny_model, eval_sequences):
        dense = SparseInferenceEngine(trained_tiny_model, DenseBaseline()).perplexity(eval_sequences[:3])
        sparse = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.3)).perplexity(eval_sequences[:3])
        assert np.isfinite(dense) and np.isfinite(sparse)
        assert sparse >= dense - 0.05

    def test_higher_density_better_perplexity(self, trained_tiny_model, eval_sequences):
        ppls = []
        for density in (0.25, 0.5, 1.0):
            engine = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(density))
            ppls.append(engine.perplexity(eval_sequences[:3]))
        assert ppls[0] >= ppls[1] >= ppls[2] - 0.05

    def test_sequence_log_likelihood_negative(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        ll = engine.sequence_log_likelihood(eval_sequences[0][:16])
        assert ll < 0

    def test_mask_recording_and_density(self, trained_tiny_model, eval_sequences):
        method = DynamicInputPruning(0.5)
        engine = SparseInferenceEngine(trained_tiny_model, method, record_masks=True)
        masks = engine.collect_masks(eval_sequences[:1])
        assert len(masks) == len(trained_tiny_model.blocks)
        cfg = trained_tiny_model.config
        density = engine.recorder.mean_mlp_density(cfg.d_model, cfg.d_ffn)
        assert density == pytest.approx(0.5, abs=0.05)

    def test_reset_clears_cache_state(self, trained_tiny_model, eval_sequences):
        method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.3)
        engine = SparseInferenceEngine(trained_tiny_model, method)
        engine.logits(eval_sequences[0][:8])
        assert method.stats.hits + method.stats.misses > 0
        engine.reset()
        assert method.stats.hits == 0

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_ids_outside_the_vocabulary_are_refused(self, trained_tiny_model, bad):
        """-1 would embed the last vocabulary row; 64 (= vocab_size) has no row."""
        match = rf"token ids must lie in \[0, 64\), got {bad}"
        engine = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        for ids in ([1, 2, bad, 3], [1, 2, 3, bad]):  # context, and the last target alone
            with pytest.raises(ValueError, match=match):
                engine.perplexity([ids])
            with pytest.raises(ValueError, match=match):
                engine.sequence_log_likelihood(ids)
        with pytest.raises(ValueError, match=match):
            engine.generate([5, bad], 3, temperature=0.0)
        for method in (DenseBaseline(), CacheAwareDIP(0.5)):  # wide, and DIP-CA's width-1 batch
            with pytest.raises(ValueError, match=match):
                SparseInferenceEngine(trained_tiny_model, method).generate_batch([[5, 6], [bad]], 2, temperature=0.0)

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_the_oracle_and_admission_refuse_ids_outside_the_vocabulary(self, trained_tiny_model, bad):
        """``CausalLM.generate`` would embed -1 as the last vocabulary row,
        and an admission would prefill it into a slot."""
        match = rf"token ids must lie in \[0, 64\), got {bad}"
        with pytest.raises(ValueError, match=match):
            trained_tiny_model.generate([5, bad], 2, temperature=0.0)
        batch = ContinuousBatch.from_engine(SparseInferenceEngine(trained_tiny_model, DenseBaseline()))
        with pytest.raises(ValueError, match=match):
            batch.admit([np.array([1, 2]), np.array([1, bad, 3])])
        assert not batch.occupied.any() and batch.slot_prefill == {}
        assert batch.prefill_tokens_total == batch.prefill_tokens_forwarded == 0

    def test_empty_prompts_and_one_token_sequences_are_refused(self, trained_tiny_model):
        """Each would reach an empty softmax; the error says what is missing."""
        engine = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        for generate in (engine.generate, trained_tiny_model.generate):
            with pytest.raises(ValueError, match="prompt must hold at least one token id"):
                generate([], 2)
        with pytest.raises(ValueError, match="at least two tokens to have a target"):
            engine.perplexity([[5]])
        with pytest.raises(ValueError, match="at least two tokens to have a target"):
            engine.sequence_log_likelihood([5])

    def test_budgets_the_model_cannot_hold_are_refused_before_any_forward(self, trained_tiny_model):
        """tiny holds 96 positions and generation writes prompt + budget - 1
        of them: 3 + 95 tokens are refused up front, as a negative budget
        is, and a DIP-CA engine's caches and hit counts do not move; a
        budget of 0 returns the prompt."""
        method = CacheAwareDIP(0.5)
        engine = SparseInferenceEngine(trained_tiny_model, method)
        engine.generate([4, 5, 6, 7], 3, temperature=0.0)  # some cache state first

        def state():
            caches = {k: (c.cached.tolist(), c.frequency.tolist(), c.token_index) for k, c in method._caches.items()}
            return caches, method.stats.hits, method.stats.misses

        before = state()
        generates = (trained_tiny_model.generate, engine.generate, engine.generate_batch)
        for budget, match in ((95, "at most 94 new tokens fit"), (-2, "must not be negative")):
            for generate in generates:
                with pytest.raises(ValueError, match=match):
                    generate([1, 2, 3], budget, temperature=0.0)
        assert state() == before
        for generate in generates:
            assert np.array_equal(np.ravel(generate([1, 2, 3], 0, temperature=0.0)), [1, 2, 3])
        assert np.ravel(engine.generate_batch([1, 2, 3], 94, temperature=0.0)).shape == (97,)

    def test_mask_recorder_errors(self):
        recorder = MaskRecorder(2)
        with pytest.raises(ValueError):
            recorder.layer_masks(0)


class TestThroughputEstimation:
    def test_dense_phi3_medium_matches_paper_ballpark(self):
        """Streaming dense Phi-3-Medium at 4 GB DRAM gives ~0.3 tok/s (paper: 0.29)."""
        spec = get_model_spec("phi3-medium")
        estimate = throughput_for_method(None, spec, APPLE_A18, n_tokens=8)
        assert 0.2 < estimate.tokens_per_second < 0.45

    def test_sparsity_improves_throughput(self):
        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        trace = SyntheticTraceConfig(n_tokens=16, seed=0)
        dense = throughput_for_method(None, spec, device, n_tokens=16, trace_config=trace)
        dip = throughput_for_method(DynamicInputPruning(0.5), spec, device, n_tokens=16, trace_config=trace)
        assert dip.tokens_per_second > dense.tokens_per_second

    def test_cache_aware_beats_plain_dip(self):
        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        trace = SyntheticTraceConfig(n_tokens=16, seed=1)
        dip = throughput_for_method(DynamicInputPruning(0.5), spec, device, n_tokens=16, trace_config=trace)
        dipca = throughput_for_method(
            CacheAwareDIP(0.5, gamma=0.2), spec, device, n_tokens=16, trace_config=trace
        )
        assert dipca.tokens_per_second > dip.tokens_per_second
        assert dipca.cache_hit_rate > dip.cache_hit_rate

    def test_lower_density_faster(self):
        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        trace = SyntheticTraceConfig(n_tokens=12, seed=2)
        low, high = (
            throughput_for_method(DynamicInputPruning(d), spec, device, n_tokens=12, trace_config=trace)
            for d in (0.3, 0.7)
        )
        assert low.tokens_per_second > high.tokens_per_second

    def test_glu_pruning_slower_than_up_pruning_under_memory_pressure(self):
        """GLU pruning must stream the dense up+gate matrices, so it loses (Table 2)."""
        from repro.sparsity.gate_pruning import UpPruning

        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        trace = SyntheticTraceConfig(n_tokens=12, seed=3)
        glu = throughput_for_method(GLUPruning(0.8), spec, device, n_tokens=12, trace_config=trace)
        up = throughput_for_method(UpPruning(0.5), spec, device, n_tokens=12, trace_config=trace)
        assert up.tokens_per_second > glu.tokens_per_second

    def test_summary_fields(self):
        spec = get_model_spec("phi3-mini")
        estimate = throughput_for_method(DynamicInputPruning(0.5), spec, APPLE_A18, n_tokens=6)
        summary = estimate.summary()
        assert set(summary) >= {"tokens_per_second", "cache_hit_rate", "mlp_density"}
        assert estimate.method_name == "dip"
        assert estimate.model_name == "phi3-mini"
