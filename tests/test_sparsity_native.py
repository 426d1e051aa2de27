"""The compiled DIP-CA step: its loader (``repro.sparsity._native``) and the
checks ``CacheAwareDIP`` makes before calling it."""

import copy
import ctypes
import hashlib
import logging
import pickle
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.sparsity import _native
from repro.sparsity.cache_aware import CacheAwareDIP


@pytest.fixture
def mlp():
    return SwiGLUMLP(GLUMLPConfig(d_model=24, d_ffn=64), seed=0)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path, caplog):
    """Nothing loaded yet in this process, the cache directory under ``tmp_path``,
    and no warning (nor log record above DEBUG) allowed."""
    monkeypatch.setattr(_native, "_step", _native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    caplog.set_level(logging.DEBUG, logger=_native.__name__)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield tmp_path / "repro"
    assert caught == []
    assert [r for r in caplog.records if r.levelno > logging.DEBUG] == []


@pytest.fixture
def reference(compiled_ca_step, mlp):
    """What the compiled step serves, taken before ``fresh_loader`` resets the loader."""
    return serve(mlp)


def serve(mlp, n_calls=4):
    """Masks and hit counts of a fresh DIP-CA over a fixed token stream."""
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
    rng = np.random.default_rng(7)
    masks = [method.compute_masks(mlp, 0, rng.normal(size=(3, mlp.d_model))) for _ in range(n_calls)]
    return (
        np.concatenate([m.input_mask for m in masks]),
        np.concatenate([m.down_mask for m in masks]),
        (method.stats.hits, method.stats.misses),
    )


def assert_same_service(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


def test_missing_compiler_runs_the_numpy_step(reference, fresh_loader, monkeypatch, mlp):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    assert _native.load_ca_step() is None
    assert_same_service(serve(mlp), reference)


def test_failed_compile_runs_the_numpy_step(reference, fresh_loader, monkeypatch, tmp_path, mlp):
    broken = tmp_path / "_ca_step.c"
    broken.write_text("int64_t ca_step(void) { return }\n")
    monkeypatch.setattr(_native, "SOURCE", broken)
    assert _native.load_ca_step() is None
    assert list(fresh_loader.iterdir()) == []
    assert_same_service(serve(mlp), reference)


def test_truncated_library_is_never_loaded(compiled_ca_step, fresh_loader, monkeypatch, tmp_path):
    assert _native.load_ca_step() is not None
    (built,) = fresh_loader.glob("ca_step-*.so")
    # A second cache directory holding only a truncated copy under the same name.
    other = tmp_path / "other"
    (other / "repro").mkdir(parents=True, mode=0o700)
    truncated = other / "repro" / built.name
    truncated.write_bytes(built.read_bytes()[: built.stat().st_size // 2])
    monkeypatch.setenv("XDG_CACHE_HOME", str(other))
    monkeypatch.setattr(_native, "_step", _native._UNSET)
    opened, cdll = [], ctypes.CDLL

    def checked_cdll(path, *args, **kwargs):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        opened.append(Path(path).name.endswith(f"-{digest}.so"))
        return cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", checked_cdll)
    assert _native.load_ca_step() is not None
    assert opened == [True]


def test_cache_directory_others_can_write_is_not_used(compiled_ca_step, fresh_loader):
    fresh_loader.mkdir(mode=0o700)
    fresh_loader.chmod(0o777)
    assert _native.load_ca_step() is None
    assert list(fresh_loader.iterdir()) == []


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
def test_copy_serves_on_its_own_caches(compiled_ca_step, mlp, clone):
    rng = np.random.default_rng(3)
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
    method.compute_masks(mlp, 0, rng.normal(size=(5, mlp.d_model)))
    copied = clone(method)
    before = {key: (c.cached.copy(), c.frequency.copy()) for key, c in method._caches.items()}
    x = rng.normal(size=(4, mlp.d_model))
    copied_masks = copied.compute_masks(mlp, 0, x)
    for key, cache in method._caches.items():
        assert np.array_equal(cache.cached, before[key][0])
        assert np.array_equal(cache.frequency, before[key][1])
    original_masks = method.compute_masks(mlp, 0, x)
    assert np.array_equal(copied_masks.input_mask, original_masks.input_mask)
    assert np.array_equal(copied_masks.down_mask, original_masks.down_mask)


def test_copies_serve_concurrently_on_their_own_state(compiled_ca_step):
    """Threads serving deep copies at once get the masks each copy gets on its
    own.  The kernel runs without the GIL, so with groups this wide the calls
    overlap; a scratch buffer shared between caches would corrupt them."""
    n = 2048
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.5)
    method._serve(0, "input", n, np.ones((1, n)), 0.5)
    streams = [np.random.default_rng(seed).normal(size=(160, n)) for seed in range(4)]

    def serve_stream(served, stream):
        return np.concatenate([served._serve(0, "input", n, stream[i : i + 16], 0.5) for i in range(0, 160, 16)])

    expected = [serve_stream(copy.deepcopy(method), stream) for stream in streams]
    copies = [copy.deepcopy(method) for _ in streams]
    results = [None] * len(streams)

    def worker(i):
        results[i] = serve_stream(copies[i], streams[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_wrong_width_raises_before_the_kernel(monkeypatch, mlp):
    calls = []

    def kernel(*args):
        calls.append(args)
        return 0

    monkeypatch.setattr(_native, "load_ca_step", lambda: kernel)
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
    method.compute_masks(mlp, 0, np.ones((2, mlp.d_model)))
    assert len(calls) == 2  # the input and the down group
    wider = SwiGLUMLP(GLUMLPConfig(d_model=mlp.d_model + 1, d_ffn=mlp.d_ffn), seed=0)
    with pytest.raises(ValueError, match=rf"\({mlp.d_model},\)"):
        method.compute_masks(wider, 0, np.ones((2, wider.d_model)))
    assert len(calls) == 2
