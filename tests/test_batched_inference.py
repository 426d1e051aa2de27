"""Batched-vs-sequential parity of the whole array (inference) path.

The engine batches by default; these tests pin the contract that batching is
purely an execution detail: for every registered sparsity method, batched
logits / perplexity / mask collection / greedy generation match the
sequence-by-sequence loop to high precision (the C-order flattening keeps the
per-layer token order identical, so this holds even for the stateful DIP-CA).
"""

import numpy as np
import pytest

from repro.engine.inference import SparseInferenceEngine, iter_length_buckets
from repro.eval.accuracy import task_accuracy
from repro.nn.attention import AttentionConfig, GroupedQueryAttention, KVCache
from repro.pipeline import (
    EvalSection,
    ExperimentSpec,
    MethodSection,
    ModelSection,
    ResultCache,
    SparseSession,
    run_experiment,
)
from repro.sparsity.base import DenseBaseline
from repro.sparsity.registry import REGISTRY
from repro.utils.numerics import log_softmax

#: Constructor kwargs keeping calibration-heavy methods fast in tests.
METHOD_KWARGS = {"dejavu": {"predictor_hidden": 8, "predictor_epochs": 1}}


@pytest.fixture(scope="module", params=sorted(REGISTRY.names()))
def calibrated_method(request, trained_tiny_model, calibration_sequences):
    """Every registered sparsity method, calibrated and ready to run."""
    method = REGISTRY.create(request.param, target_density=0.6, **METHOD_KWARGS.get(request.param, {}))
    if method.requires_calibration:
        method.calibrate(trained_tiny_model, calibration_sequences)
    return method


def _sequential_perplexity(engine, sequences):
    """The legacy loop: one forward + full log-softmax per sequence."""
    total_nll = 0.0
    total_tokens = 0
    for sequence in sequences:
        log_probs = log_softmax(engine.logits(sequence[:-1]))
        targets = sequence[1:]
        total_nll -= float(log_probs[np.arange(targets.size), targets].sum())
        total_tokens += targets.size
    return float(np.exp(total_nll / total_tokens))


class TestMethodParity:
    def test_logits_batched_matches_loop(self, trained_tiny_model, eval_sequences, calibrated_method):
        engine = SparseInferenceEngine(trained_tiny_model, calibrated_method)
        engine.reset()
        batched = engine.logits(eval_sequences[:4])
        engine.reset()
        looped = np.stack([engine.logits(s) for s in eval_sequences[:4]])
        assert np.allclose(batched, looped, atol=1e-8)

    def test_perplexity_batched_matches_loop(self, trained_tiny_model, eval_sequences, calibrated_method):
        engine = SparseInferenceEngine(trained_tiny_model, calibrated_method)
        engine.reset()
        batched = engine.perplexity(eval_sequences[:4])
        engine.reset()
        sequential = _sequential_perplexity(engine, eval_sequences[:4])
        assert batched == pytest.approx(sequential, abs=1e-8)

    def test_collect_masks_batched_matches_loop(self, trained_tiny_model, eval_sequences, calibrated_method):
        engine = SparseInferenceEngine(trained_tiny_model, calibrated_method, record_masks=True)
        engine.reset()
        batched = engine.collect_masks(eval_sequences[:3])
        engine.reset()
        sequential = engine.collect_masks(eval_sequences[:3], batch_size=1)
        for b, s in zip(batched, sequential):
            assert np.array_equal(b.down_mask, s.down_mask)
            if b.input_mask is not None:
                assert np.array_equal(b.input_mask, s.input_mask)

    def test_generate_batched_matches_loop(self, trained_tiny_model, eval_sequences, calibrated_method):
        engine = SparseInferenceEngine(trained_tiny_model, calibrated_method)
        engine.reset()
        prompts = eval_sequences[:3, :6]
        batched = engine.generate_batch(prompts, max_new_tokens=5, temperature=0.0)
        engine.reset()
        looped = np.stack([engine.generate(p, max_new_tokens=5, temperature=0.0) for p in prompts])
        assert np.array_equal(batched, looped)


class TestBatchedForward:
    def test_model_forward_batched_matches_stacked(self, trained_tiny_model, eval_sequences):
        batched = trained_tiny_model.forward_array(eval_sequences[:4])
        stacked = np.stack([trained_tiny_model.forward_array(s) for s in eval_sequences[:4]])
        assert np.allclose(batched, stacked, atol=1e-10)

    def test_last_only_matches_full_projection(self, trained_tiny_model, eval_sequences):
        full = trained_tiny_model.forward_array(eval_sequences[:3])
        last = trained_tiny_model.forward_array(eval_sequences[:3], last_only=True)
        assert last.shape == (3, 1, trained_tiny_model.config.vocab_size)
        assert np.allclose(last[:, 0], full[:, -1], atol=1e-12)

    def test_attention_batched_matches_loop(self):
        attention = GroupedQueryAttention(
            AttentionConfig(d_model=32, n_heads=4, n_kv_heads=2, max_seq_len=32), seed=0
        )
        x = np.random.default_rng(0).normal(size=(5, 12, 32))
        batched = attention.forward_array(x)
        looped = np.stack([attention.forward_array(row) for row in x])
        assert np.allclose(batched, looped, atol=1e-10)

    def test_batched_kv_cache_decode_matches_full(self, trained_tiny_model, eval_sequences):
        """Prefill + single-token decode through batched caches == full forward."""
        ids = eval_sequences[:3, :10]
        full = trained_tiny_model.forward_array(ids)
        caches = trained_tiny_model.new_kv_caches(max_seq_len=10, batch_size=3)
        prefill = trained_tiny_model.forward_array(ids[:, :6], kv_caches=caches)
        steps = [prefill]
        for t in range(6, 10):
            steps.append(trained_tiny_model.forward_array(ids[:, t : t + 1], kv_caches=caches))
        assert np.allclose(np.concatenate(steps, axis=1), full, atol=1e-9)

    def test_generate_batch_greedy_matches_generate(self, trained_tiny_model):
        prompts = np.asarray([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.int64)
        dense = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        batched = dense.generate_batch(prompts, max_new_tokens=6, temperature=0.0)
        singles = np.stack(
            [trained_tiny_model.generate(p, max_new_tokens=6, temperature=0.0) for p in prompts]
        )
        assert np.array_equal(batched, singles)


class TestRaggedGenerateBatch:
    """Ragged prompts come back left-padded; DIP-CA's width-1 batch matches the layout."""

    PROMPTS = [[1, 2, 3, 4, 5, 6], [7, 8], [9, 10, 11]]

    def test_ragged_rows_match_generate(self, trained_tiny_model):
        dense = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        out = dense.generate_batch(self.PROMPTS, max_new_tokens=5, temperature=0.0)
        longest = max(len(p) for p in self.PROMPTS)
        assert out.shape == (3, longest + 5)
        for i, prompt in enumerate(self.PROMPTS):
            single = trained_tiny_model.generate(prompt, max_new_tokens=5, temperature=0.0)
            assert np.array_equal(out[i, longest - len(prompt) :], single)
            assert (out[i, : longest - len(prompt)] == 0).all()

    def test_engine_ragged_matches_generate(self, trained_tiny_model, calibrated_method):
        engine = SparseInferenceEngine(trained_tiny_model, calibrated_method)
        engine.reset()
        batched = engine.generate_batch(self.PROMPTS, max_new_tokens=4, temperature=0.0)
        longest = max(len(p) for p in self.PROMPTS)
        for i, prompt in enumerate(self.PROMPTS):
            engine.reset()
            single = engine.generate(np.asarray(prompt), max_new_tokens=4, temperature=0.0)
            assert np.array_equal(batched[i, longest - len(prompt) :], single)

    def test_cache_state_fallback_layout_matches_batched_path(self, trained_tiny_model):
        """Regression: the width-1 DIP-CA batch must pad like the wide one."""
        from repro.sparsity.cache_aware import CacheAwareDIP

        cache_aware = SparseInferenceEngine(trained_tiny_model, CacheAwareDIP(target_density=0.6))
        out = cache_aware.generate_batch(self.PROMPTS, max_new_tokens=4, temperature=0.0)
        dense = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        reference = dense.generate_batch(self.PROMPTS, max_new_tokens=4, temperature=0.0)
        # Same shape and same pad placement as the batched (left-padded) path.
        assert out.shape == reference.shape
        longest = max(len(p) for p in self.PROMPTS)
        # Width 1 decodes prompt after prompt (state carries across prompts,
        # as it always did): replay it and check the left-padded placement.
        replay = SparseInferenceEngine(trained_tiny_model, CacheAwareDIP(target_density=0.6))
        for i, prompt in enumerate(self.PROMPTS):
            pad = longest - len(prompt)
            assert (out[i, :pad] == 0).all()
            assert np.array_equal(out[i, pad : pad + len(prompt)], prompt)
            single = replay.generate(np.asarray(prompt), max_new_tokens=4, temperature=0.0)
            assert np.array_equal(out[i, pad:], single)

    @pytest.mark.parametrize("name", ["dense", "dip", "dip-ca"])
    def test_seeded_sampling_is_step_major_from_one_rng(self, trained_tiny_model, name):
        """Sampled tokens come from one rng, step by step with each step's
        rows in input order; DIP-CA decodes prompt after prompt, so its rows
        draw from that stream one whole prompt at a time."""
        from repro.nn.transformer import _sample_token

        method = REGISTRY.create(name, target_density=0.5)
        out = SparseInferenceEngine(trained_tiny_model, method).generate_batch(
            self.PROMPTS, max_new_tokens=5, temperature=0.8, rng=7
        )
        reference = SparseInferenceEngine(trained_tiny_model, REGISTRY.create(name, target_density=0.5))
        rng = np.random.default_rng(7)
        if method.requires_cache_state:
            rows = [reference.generate(prompt, 5, temperature=0.8, rng=rng) for prompt in self.PROMPTS]
        else:
            rows = [list(prompt) for prompt in self.PROMPTS]
            for _ in range(5):
                for row in rows:
                    row.append(_sample_token(reference.logits(np.asarray(row))[-1], 0.8, rng))
        longest = max(len(p) for p in self.PROMPTS)
        for got, want in zip(out, rows):
            assert np.array_equal(got[longest + 5 - len(want) :], want)

    def test_equal_length_list_unchanged(self, trained_tiny_model):
        """Equal-length prompts given as a list keep the legacy stacked layout."""
        prompts = [[1, 2, 3], [4, 5, 6]]
        dense = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        out = dense.generate_batch(prompts, max_new_tokens=3, temperature=0.0)
        stacked = dense.generate_batch(np.asarray(prompts), max_new_tokens=3, temperature=0.0)
        assert np.array_equal(out, stacked)


class TestRaggedBucketing:
    def test_ragged_perplexity_matches_manual(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dip", target_density=0.6))
        ragged = [eval_sequences[0][:12], eval_sequences[1], eval_sequences[2][:12], eval_sequences[3][:20]]
        batched = engine.perplexity(ragged)
        sequential = _sequential_perplexity(engine, ragged)
        assert batched == pytest.approx(sequential, abs=1e-8)

    def test_ragged_collect_masks_rows_in_input_order(self, trained_tiny_model, eval_sequences):
        """Bucketing must not leak into the returned row order."""
        method = REGISTRY.create("dip", target_density=0.6)
        engine = SparseInferenceEngine(trained_tiny_model, method, record_masks=True)
        ragged = [eval_sequences[0][:20], eval_sequences[1][:12], eval_sequences[2][:20]]
        bucketed = engine.collect_masks(ragged)
        engine.reset()
        looped = engine.collect_masks(ragged, batch_size=1)
        # batch_size=1 preserves bucket grouping too, so compare against a
        # genuinely sequential in-order reference.
        engine.reset()
        for seq in ragged:
            engine.logits(seq)
        reference = engine.recorder.all_layer_masks()
        for b, r in zip(bucketed, reference):
            assert np.array_equal(b.down_mask, r.down_mask)
            assert np.array_equal(b.input_mask, r.input_mask)
        for looped_mask, r in zip(looped, reference):
            assert np.array_equal(looped_mask.down_mask, r.down_mask)

    def test_batch_size_one_matches_default(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense"))
        assert engine.perplexity(eval_sequences[:4], batch_size=1) == pytest.approx(
            engine.perplexity(eval_sequences[:4]), abs=1e-8
        )

    def test_single_sequence_input(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense"))
        one = engine.perplexity(eval_sequences[0])
        assert one == pytest.approx(_sequential_perplexity(engine, [eval_sequences[0]]), abs=1e-10)

    def test_iter_length_buckets_groups_and_chunks(self):
        sequences = [np.zeros(4), np.zeros(7), np.zeros(4), np.zeros(4), np.zeros(7)]
        buckets = list(iter_length_buckets(sequences, batch_size=2))
        # Length 4 first (first seen), stable order, chunked at 2.
        assert [[i for i, _ in b] for b in buckets] == [[0, 2], [3], [1, 4]]
        # Token budget: at most max(1, max_tokens // length) sequences per batch.
        budgeted = list(iter_length_buckets(sequences, max_tokens=8))
        assert [[i for i, _ in b] for b in budgeted] == [[0, 2], [3], [1], [4]]

    def test_sequence_log_likelihoods_match_singular(self, trained_tiny_model, eval_sequences):
        engine = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense"))
        sequences = [eval_sequences[0][:14], eval_sequences[1][:18], eval_sequences[2][:14]]
        starts = np.asarray([3, 5, 2])
        batched = engine.sequence_log_likelihoods(sequences, continuation_starts=starts)
        singles = [
            engine.sequence_log_likelihood(s, continuation_start=int(c))
            for s, c in zip(sequences, starts)
        ]
        assert np.allclose(batched, singles, atol=1e-8)


class TestBatchedKVCache:
    def test_batched_append_and_views(self):
        cache = KVCache(n_kv_heads=2, head_dim=4, max_seq_len=8, batch_size=3)
        k = np.ones((3, 2, 5, 4))
        keys, values = cache.append(k, k * 2)
        assert cache.length == 5
        assert keys.shape == (3, 2, 5, 4)
        assert np.allclose(values, 2.0)

    def test_batch_mismatch_rejected(self):
        cache = KVCache(2, 4, 8, batch_size=2)
        with pytest.raises(ValueError):
            cache.append(np.zeros((3, 2, 1, 4)), np.zeros((3, 2, 1, 4)))

    def test_legacy_3d_interface(self):
        cache = KVCache(2, 4, 8)
        keys, values = cache.append(np.ones((2, 3, 4)), np.ones((2, 3, 4)))
        assert keys.shape == (2, 3, 4)

    def test_memory_bytes_scales_with_batch(self):
        assert KVCache(2, 4, 8, batch_size=4).memory_bytes(2.0) == 4 * KVCache(2, 4, 8).memory_bytes(2.0)


class TestBatchedAccuracy:
    def test_task_accuracy_batched_matches_sequential(self, trained_tiny_model, tiny_task):
        """The bucketed scorer reproduces the per-example loop exactly."""
        from repro.eval.accuracy import _choice_log_likelihood
        from repro.sparsity.base import DenseBaseline

        engine = SparseInferenceEngine(trained_tiny_model, DenseBaseline())
        correct = 0
        for example in tiny_task.examples:
            scores = [
                _choice_log_likelihood(engine, example.context, choice) for choice in example.choices
            ]
            if int(np.argmax(scores)) == example.answer_index:
                correct += 1
        expected = 100.0 * correct / len(tiny_task.examples)
        assert task_accuracy(trained_tiny_model, tiny_task) == pytest.approx(expected, abs=1e-9)


class TestResultCache:
    def _spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            name="cache-test",
            model=ModelSection(name="tiny"),
            method=MethodSection(name="dip", target_density=0.6),
            eval=EvalSection(max_eval_sequences=2, primary_task=None),
            hardware=None,
        )

    def _session(self, trained_tiny_model, eval_sequences) -> SparseSession:
        spec = self._spec()
        return SparseSession(
            trained_tiny_model,
            spec.build_method(),
            settings=spec.eval.settings(),
            model_name="tiny",
            eval_sequences=eval_sequences[:2],
        )

    def test_repeated_run_served_from_cache(self, trained_tiny_model, eval_sequences, tmp_path):
        spec = self._spec()
        session = self._session(trained_tiny_model, eval_sequences)
        first = run_experiment(spec, session=session, result_cache=tmp_path)
        # Second run passes no session: a cache hit must return before any
        # model preparation is attempted.
        second = run_experiment(spec, result_cache=tmp_path)
        assert second.rows() == first.rows()
        assert second.spec == spec

    def test_cache_key_distinguishes_specs_and_dense_flag(self):
        spec = self._spec()
        other = spec.replace(name="other-name")
        assert ResultCache.key_for(spec) != ResultCache.key_for(other)
        assert ResultCache.key_for(spec) != ResultCache.key_for(spec, include_dense=True)

    def test_no_cache_by_default(self, trained_tiny_model, eval_sequences, tmp_path):
        spec = self._spec()
        session = self._session(trained_tiny_model, eval_sequences)
        run_experiment(spec, session=session)
        assert ResultCache(tmp_path).keys() == []
