"""Tests for the artifact cache and prepared-model machinery."""

import numpy as np
import pytest

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.models import FAST_PREPARATION, PreparationConfig, prepare_model


class TestArtifactCache:
    def test_save_and_load_state(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        state = {"a": np.arange(5.0), "b": np.ones((2, 2))}
        cache.save_state("thing", state, metadata={"note": "hello"})
        assert cache.has("thing")
        loaded = cache.load_state("thing")
        assert np.array_equal(loaded["a"], state["a"])
        assert cache.load_metadata("thing") == {"note": "hello"}

    def test_missing_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.has("nope")
        with pytest.raises(FileNotFoundError):
            cache.load_state("nope")
        assert cache.load_metadata("nope") is None

    def test_keys_and_delete(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.save_state("one", {"x": np.zeros(2)})
        cache.save_state("two", {"x": np.zeros(2)})
        assert cache.keys() == ["one", "two"]
        cache.delete("one")
        assert cache.keys() == ["two"]

    def test_empty_dir_keys(self, tmp_path):
        assert ArtifactCache(tmp_path / "missing").keys() == []


class TestPreparationConfig:
    def test_training_config_derived(self):
        prep = PreparationConfig(train_steps=17, batch_size=4)
        assert prep.training_config().steps == 17
        assert prep.training_config().batch_size == 4

    def test_fast_preparation_is_smaller(self):
        assert FAST_PREPARATION.train_steps < PreparationConfig().train_steps


class TestPrepareModel:
    def test_prepare_trains_and_caches(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        prep = PreparationConfig(corpus_tokens=20_000, train_steps=15, task_examples=4, seq_len=32)
        first = prepare_model("tiny", preparation=prep, cache=cache)
        assert np.isfinite(first.dense_ppl)
        assert len(cache.keys()) == 1
        # Second call loads the cached weights and reproduces the model exactly.
        second = prepare_model("tiny", preparation=prep, cache=cache)
        for (name_a, p_a), (name_b, p_b) in zip(
            first.model.named_parameters(), second.model.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(p_a.data, p_b.data)

    def test_assets_consistent_with_model(self, tmp_path):
        prep = PreparationConfig(corpus_tokens=20_000, train_steps=5, task_examples=4, seq_len=32)
        prepared = prepare_model("tiny", preparation=prep, cache=ArtifactCache(tmp_path))
        assert prepared.splits.vocab_size == prepared.model.config.vocab_size
        assert prepared.eval_sequences.max() < prepared.model.config.vocab_size
        assert len(prepared.task_suite) > 0
