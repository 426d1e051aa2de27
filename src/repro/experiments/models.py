"""Prepared (trained) simulation-scale models with their data and tasks."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.data.datasets import DataSplits, make_splits
from repro.data.tasks import MultipleChoiceTask, build_task, build_task_suite
from repro.experiments.artifacts import ArtifactCache
from repro.eval.perplexity import dense_perplexity
from repro.nn.model_zoo import PAPER_MODEL_NAMES, ModelSpec, get_model_spec
from repro.nn.transformer import CausalLM
from repro.training.trainer import TrainingConfig, train_language_model
from repro.utils.config import ConfigBase, config_hash
from repro.utils.logging import get_logger

logger = get_logger("experiments.models")


@dataclasses.dataclass(frozen=True)
class PreparationConfig(ConfigBase):
    """How a simulation-scale model and its data are prepared."""

    corpus_tokens: int = 120_000
    corpus_seed: int = 7
    seq_len: int = 48
    train_steps: int = 500
    batch_size: int = 16
    learning_rate: float = 3e-3
    model_seed: int = 0
    #: Examples per downstream task (kept small: evaluation is CPU-bound).
    task_examples: int = 32
    task_shots: int = 1

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            steps=self.train_steps,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.model_seed,
            log_every=0,
        )


#: A light preparation used by tests and quick examples.
FAST_PREPARATION = PreparationConfig(corpus_tokens=40_000, train_steps=120, task_examples=16)


@dataclasses.dataclass
class PreparedModel:
    """A trained simulation-scale model bundled with its evaluation assets."""

    name: str
    spec: ModelSpec
    model: CausalLM
    splits: DataSplits
    primary_task: MultipleChoiceTask
    task_suite: Dict[str, MultipleChoiceTask]
    dense_ppl: float
    preparation: PreparationConfig

    @property
    def eval_sequences(self) -> np.ndarray:
        return self.splits.test.sequences

    @property
    def calibration_sequences(self) -> np.ndarray:
        return self.splits.train.sequences

    def mlp_dimensions(self):
        return self.model.mlp_dimensions()


def _build_assets(spec: ModelSpec, preparation: PreparationConfig):
    vocab_for_corpus = spec.sim_config.vocab_size - 4  # leave room for special tokens
    splits = make_splits(
        n_tokens=preparation.corpus_tokens,
        seed=preparation.corpus_seed,
        seq_len=preparation.seq_len,
        vocab_size=vocab_for_corpus,
    )
    if splits.vocab_size != spec.sim_config.vocab_size:
        raise ValueError(
            f"tokenizer vocab {splits.vocab_size} does not match model vocab {spec.sim_config.vocab_size}"
        )
    primary_task = build_task(
        "mmlu",
        tokenizer=splits.tokenizer,
        n_examples=preparation.task_examples,
        n_shots=preparation.task_shots,
        seed=preparation.corpus_seed + 100,
    )
    suite = build_task_suite(
        tokenizer=splits.tokenizer,
        n_examples=preparation.task_examples,
        n_shots=preparation.task_shots,
        seed=preparation.corpus_seed + 200,
    )
    return splits, primary_task, suite


#: The MLP weight layout a cached state dict holds (see :mod:`repro.nn.mlp`),
#: part of every model's artifact key: a state saved in another layout is
#: retrained rather than loaded.
WEIGHT_LAYOUT = "mlp-unit-major"


def prepare_model(
    name: str,
    preparation: PreparationConfig = PreparationConfig(),
    cache: Optional[ArtifactCache] = None,
    force_retrain: bool = False,
) -> PreparedModel:
    """Train (or load from cache) the simulation-scale model for ``name``.

    The cache key covers the model spec, the preparation config and the
    MLP weight layout (:data:`WEIGHT_LAYOUT`), so changing any of them
    triggers a retrain.
    """
    spec = get_model_spec(name)
    cache = cache if cache is not None else ArtifactCache()
    key = f"model-{name}-{WEIGHT_LAYOUT}-{config_hash(spec.sim_config, preparation)}"

    splits, primary_task, suite = _build_assets(spec, preparation)
    model = CausalLM(spec.sim_config, seed=preparation.model_seed)

    if cache.has(key) and not force_retrain:
        model.load_state_dict(cache.load_state(key))
        metadata = cache.load_metadata(key) or {}
        dense_ppl = float(metadata.get("dense_ppl", float("nan")))
        if not np.isfinite(dense_ppl):
            dense_ppl = dense_perplexity(model, splits.test.sequences, max_sequences=16)
        logger.info("loaded cached model '%s' (dense ppl %.3f)", name, dense_ppl)
    else:
        logger.info("training simulation model '%s' (%d steps)", name, preparation.train_steps)
        train_language_model(model, splits.train, preparation.training_config(), validation_dataset=None)
        dense_ppl = dense_perplexity(model, splits.test.sequences, max_sequences=16)
        cache.save_state(key, model.state_dict(), metadata={"dense_ppl": dense_ppl, "model": name})

    model.eval()
    return PreparedModel(
        name=name,
        spec=spec,
        model=model,
        splits=splits,
        primary_task=primary_task,
        task_suite=suite,
        dense_ppl=dense_ppl,
        preparation=preparation,
    )


def prepare_paper_models(
    preparation: PreparationConfig = PreparationConfig(),
    cache: Optional[ArtifactCache] = None,
    names: Optional[List[str]] = None,
) -> Dict[str, PreparedModel]:
    """Prepare all four paper models (Phi-3-Medium/Mini, Llama-3-8B, Mistral-7B analogues)."""
    names = names if names is not None else list(PAPER_MODEL_NAMES)
    return {name: prepare_model(name, preparation=preparation, cache=cache) for name in names}
