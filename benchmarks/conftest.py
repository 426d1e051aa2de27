"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper and
prints it (uncaptured, so it lands in ``bench_output.txt``).  Trained
simulation models are pulled from the ``.artifacts/`` cache — the first ever
invocation trains them (a few minutes per model on CPU), subsequent runs load
them in seconds.

Scale knobs: set ``REPRO_BENCH_FAST=1`` to shrink evaluation workloads further
(fewer sequences / examples / simulated tokens).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.harness import EvaluationSettings
from repro.experiments import ArtifactCache, prepare_model
from repro.experiments.models import WEIGHT_LAYOUT, PreparationConfig
from repro.nn.model_zoo import PAPER_MODEL_NAMES
from repro.nn.transformer import CausalLM
from repro.training.trainer import TrainingConfig, train_language_model
from repro.utils.config import config_hash

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Where benches also write their rendered tables (one .txt per experiment).
RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def preparation() -> PreparationConfig:
    return PreparationConfig()


@pytest.fixture(scope="session")
def bench_settings() -> EvaluationSettings:
    if FAST:
        return EvaluationSettings(max_eval_sequences=3, max_task_examples=6, calibration_sequences=3)
    return EvaluationSettings(max_eval_sequences=5, max_task_examples=10, calibration_sequences=4)


@pytest.fixture(scope="session")
def sim_tokens() -> int:
    """Tokens simulated per HW-simulator run."""
    return 12 if FAST else 20


@pytest.fixture(scope="session")
def prepared_models(preparation):
    """The four paper models (simulation scale), trained once and cached."""
    return {name: prepare_model(name, preparation=preparation) for name in PAPER_MODEL_NAMES}


@pytest.fixture(scope="session")
def phi3_medium(preparation):
    return prepare_model("phi3-medium", preparation=preparation)


@pytest.fixture(scope="session")
def mistral(preparation):
    return prepare_model("mistral-7b", preparation=preparation)


@pytest.fixture(scope="session")
def relufied_mistral(mistral, preparation):
    """A ReLU-fied counterpart of the Mistral simulation model (TurboSparse analogue).

    Trained from scratch with the same data and schedule but ReLU gate
    activations, and cached like every other model artifact.
    """
    relu_config = mistral.spec.sim_config.replace(activation="relu")
    cache = ArtifactCache()
    key = f"model-mistral-relufied-{WEIGHT_LAYOUT}-{config_hash(relu_config, preparation)}"
    model = CausalLM(relu_config, seed=preparation.model_seed)
    if cache.has(key):
        model.load_state_dict(cache.load_state(key))
    else:
        steps = 150 if FAST else 250
        train_language_model(
            model,
            mistral.splits.train,
            TrainingConfig(steps=steps, batch_size=preparation.batch_size,
                           learning_rate=preparation.learning_rate, log_every=0),
        )
        cache.save_state(key, model.state_dict(), metadata={"base": "mistral-7b", "activation": "relu"})
    model.eval()
    return model
