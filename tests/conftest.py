"""Shared fixtures for the test suite.

All fixtures are deliberately tiny: the goal is to exercise every code path,
not to produce publication-quality numbers (the benchmarks do that).
Session-scoped fixtures cache the few expensive objects (a briefly trained
model) so the suite stays fast.
"""

from __future__ import annotations

import faulthandler
from pathlib import Path

import numpy as np
import pytest
import timing_utils
from timing_utils import scaled

from repro.data.datasets import DataSplits, make_splits
from repro.data.tasks import build_task
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.training.trainer import TrainingConfig, train_language_model
from repro.utils import native

#: Vocabulary shared by the tiny test corpus and models (60 symbols + 4 specials).
TEST_VOCAB = 64

#: Modules whose tests involve threads, worker processes, and blocking queues —
#: a bug there wedges instead of failing, so they get a watchdog by default.
WATCHDOG_MODULES = ("test_serving", "test_fleet")

#: Default per-test wall-clock budget (seconds) for the watchdog modules.
WATCHDOG_TIMEOUT_S = 120.0


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    """Per-test timeout with a full stack dump on expiry.

    ``pytest-timeout`` is not a dependency, so the stdlib ``faulthandler``
    fills in: if a test outlives its budget (a deadlocked mailbox, a worker
    that never reports ready), every thread's traceback is dumped to stderr
    and the process exits — CI sees *where* it hung instead of waiting for
    the job-level ``timeout-minutes`` to reap a silent runner.  Applies to
    the serving/fleet suites automatically; any test can opt in (or override
    the budget) with ``@pytest.mark.timeout(seconds)``.
    """
    marker = request.node.get_closest_marker("timeout")
    if marker is not None and marker.args:
        seconds = float(marker.args[0])
    elif marker is not None or Path(str(request.node.fspath)).stem in WATCHDOG_MODULES:
        seconds = WATCHDOG_TIMEOUT_S
    else:
        yield
        return
    # Budgets stretch with REPRO_TEST_TIME_SCALE like every other timing
    # constant (tests/timing_utils.py) so a slow runner is not declared hung.
    faulthandler.dump_traceback_later(scaled(seconds), exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def tiny_config() -> TransformerConfig:
    return TransformerConfig(
        vocab_size=TEST_VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        n_kv_heads=2,
        d_ffn=64,
        max_seq_len=96,
    )


@pytest.fixture(scope="session")
def tiny_splits() -> DataSplits:
    return make_splits(
        n_tokens=24_000,
        seed=11,
        seq_len=32,
        vocab_size=TEST_VOCAB - 4,
        branching_factor=6,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_config) -> CausalLM:
    """An untrained tiny model (random weights, deterministic seed)."""
    model = CausalLM(tiny_config, seed=3)
    model.eval()
    return model


@pytest.fixture(scope="session")
def trained_tiny_model(tiny_config, tiny_splits) -> CausalLM:
    """A briefly trained tiny model; enough structure for sparsity ordering tests."""
    model = CausalLM(tiny_config, seed=5)
    train_language_model(
        model,
        tiny_splits.train,
        TrainingConfig(steps=80, batch_size=8, learning_rate=3e-3, log_every=0, seed=1),
    )
    model.eval()
    return model


@pytest.fixture(scope="session")
def calibration_sequences(tiny_splits) -> np.ndarray:
    return tiny_splits.train.sequences[:4]


@pytest.fixture(scope="session")
def eval_sequences(tiny_splits) -> np.ndarray:
    return tiny_splits.test.sequences[:6]


@pytest.fixture(scope="session")
def tiny_task(tiny_splits):
    return build_task("mmlu", tokenizer=tiny_splits.tokenizer, n_examples=8, n_shots=0, seed=3)


@pytest.fixture(scope="session")
def compiled_kernels():
    """The compiled kernels by name; a test that needs them skips when no C compiler builds them."""
    functions = native.LIBRARY.load()
    if functions is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")
    return functions


@pytest.fixture(params=["kernel", "numpy"])
def decode_path(request, monkeypatch):
    """Which path decode steps take: the compiled kernels, or numpy (the
    kernel library's loader forced to ``None``)."""
    if request.param == "numpy":
        monkeypatch.setattr(native.LIBRARY, "load", lambda: None)
    else:
        request.getfixturevalue("compiled_kernels")
    return request.param


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def timing():
    """The shared timing-tolerance helpers (``scaled``/``wait_until``).

    Importable directly (``from timing_utils import scaled``) by modules
    that use them at definition time; available as a fixture for tests that
    only need them inline.
    """
    return timing_utils
