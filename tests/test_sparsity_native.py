"""The compiled kernels' loader (``repro.utils.native``) and the checks
``CacheAwareDIP`` makes before calling DIP-CA's step.

The loader builds one library from one translation unit holding every
kernel: DIP-CA's step (``_ca_step.c``), the decode attention and the head
(``_decode_attn.c``), the DIP/DIP-CA decode MLP (``_decode_mlp.c``) and the
one-call decode step (``_decode_step.c``), so each loader case runs once and
checks every handle."""

import copy
import ctypes
import hashlib
import logging
import pickle
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.engine.decode_step import DECODE_STEP
from repro.engine.inference import ContinuousBatch, SparseInferenceEngine
from repro.nn.decode_attn import DECODE_ATTN, DECODE_HEAD
from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.sparsity.cache_aware import CA_STEP, CacheAwareDIP
from repro.sparsity.decode_mlp import DECODE_MLP
from repro.utils import native

KERNELS = (CA_STEP, DECODE_ATTN, DECODE_HEAD, DECODE_MLP, DECODE_STEP)


@pytest.fixture
def mlp():
    return SwiGLUMLP(GLUMLPConfig(d_model=24, d_ffn=64), seed=0)


@pytest.fixture(scope="module")
def model():
    config = TransformerConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ffn=32, max_seq_len=24)
    return CausalLM(config, seed=1)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path, caplog):
    """The library not loaded yet in this process, the cache directory under
    ``tmp_path``, and no warning (nor log record above DEBUG) allowed."""
    monkeypatch.setattr(native.LIBRARY, "_functions", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    caplog.set_level(logging.DEBUG, logger=native.__name__)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield tmp_path / "repro"
    assert caught == []
    assert [r for r in caplog.records if r.levelno > logging.DEBUG] == []


@pytest.fixture
def reference(compiled_kernels, mlp, model):
    """What the compiled kernels serve, taken before ``fresh_loader`` resets the loader."""
    return serve(mlp), decode(model)


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


def decode(model, n_steps=6):
    """Logits of a fixed prompt's decode steps under DIP-CA, lock-step (on
    numpy) and through a ``ContinuousBatch`` (the one-call step), with the
    hit counts."""
    engine = SparseInferenceEngine(model, CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4))
    caches = model.new_kv_caches(16)
    model.forward_array(np.arange(1, 6), kv_caches=caches, mlp_override=engine._mlp_override)
    logits = [
        model.forward_array(np.asarray([t]), kv_caches=caches, mlp_override=engine._mlp_override)[-1]
        for t in range(n_steps)
    ]
    engine.reset()
    batch = ContinuousBatch.from_engine(engine, max_batch_size=1, max_seq_len=16)
    slots, _ = batch.admit([np.arange(1, 6)])
    logits += [batch.step(slots, [t])[0] for t in range(n_steps)]
    return np.stack(logits), (engine.method.stats.hits, engine.method.stats.misses)


def assert_same_service(got, reference):
    (a, (logits, hits)), (b, (expected, expected_hits)) = got, reference
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]
    np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)
    assert hits == expected_hits


def test_one_compiler_call_builds_one_library(compiled_kernels, fresh_loader, monkeypatch, mlp, model):
    """DIP-CA prefill masks and the one-call step run from one library,
    built by one compiler call, which holds every kernel."""
    calls, run = [], subprocess.run

    def counted_run(command, *args, **kwargs):
        calls.append(command)
        return run(command, *args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", counted_run)
    serve(mlp)
    decode(model)
    assert all(kernel.load() is not None for kernel in KERNELS)
    assert len(calls) == 1
    assert len(list(fresh_loader.glob("*.so"))) == 1


def test_missing_compiler_runs_the_numpy_step(reference, fresh_loader, monkeypatch, mlp, model):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert [kernel.load() for kernel in KERNELS] == [None] * len(KERNELS)
    assert_same_service((serve(mlp), decode(model)), reference)


def test_failed_compile_runs_the_numpy_step(reference, fresh_loader, monkeypatch, tmp_path, mlp, model):
    broken = tmp_path / native.LIBRARY.source.name
    broken.write_text("int64_t decode_step(void) { return }\n")
    monkeypatch.setattr(native.LIBRARY, "source", broken)
    assert [kernel.load() for kernel in KERNELS] == [None] * len(KERNELS)
    assert list(fresh_loader.iterdir()) == []
    assert_same_service((serve(mlp), decode(model)), reference)


def test_truncated_library_is_never_loaded(compiled_kernels, fresh_loader, monkeypatch, tmp_path):
    # A second cache directory holding only a truncated copy under the built name.
    other = tmp_path / "other"
    (other / "repro").mkdir(parents=True, mode=0o700)
    assert native.LIBRARY.load() is not None
    (built,) = fresh_loader.glob("*.so")
    (other / "repro" / built.name).write_bytes(built.read_bytes()[: built.stat().st_size // 2])
    monkeypatch.setattr(native.LIBRARY, "_functions", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(other))
    opened, cdll = [], ctypes.CDLL

    def checked_cdll(path, *args, **kwargs):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        opened.append(Path(path).name.endswith(f"-{digest}.so"))
        return cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", checked_cdll)
    assert all(kernel.load() is not None for kernel in KERNELS)
    assert opened == [True]


def test_edited_header_builds_a_new_library(compiled_kernels, fresh_loader, monkeypatch, tmp_path):
    """The library's name covers the per-row step's header, which its source includes."""
    assert native.LIBRARY.load() is not None
    (built,) = fresh_loader.glob("*.so")
    edited = tmp_path / "_ca_row.h"
    headers = [edited if path.name == edited.name else path for path in native.LIBRARY.headers]
    edited.write_bytes(native.LIBRARY.headers[headers.index(edited)].read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(native.LIBRARY, "headers", tuple(headers))
    monkeypatch.setattr(native.LIBRARY, "_functions", native._UNSET)
    assert all(kernel.load() is not None for kernel in KERNELS)
    rebuilt = sorted(fresh_loader.glob("*.so"))
    assert len(rebuilt) == 2 and built in rebuilt


def test_the_library_hash_covers_every_included_file():
    """``LIBRARY.headers``, kept by hand, names exactly the files the source
    includes, directly or through another include: an edit to a file left
    out would load a stale cached library."""
    include = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
    found, todo = [], [native.LIBRARY.source]
    while todo:
        path = todo.pop()
        for name in include.findall(path.read_text()):
            included = (path.parent / name).resolve()
            if included not in found:
                found.append(included)
                todo.append(included)
    headers = [path.resolve() for path in native.LIBRARY.headers]
    assert sorted(headers) == sorted(found)


def test_a_binding_is_used_again_only_at_its_version_and_for_its_owners():
    """``current_binding`` keeps a binding while the version has not moved
    and it is asked for with the very owners it was made for, in order; a
    bump, or replaced, reordered, equal-valued or extra owners, bind again; a
    binding the kernel cannot use gives, and stores, ``None``."""
    a, b = np.zeros(3), np.ones(3)
    holder, made = {}, []

    def bind(n):
        made.append(n)
        return None if n > 3 else native.Binding((), ctypes.c_int64(n))

    held = native.current_binding(holder, "bound", (a, b), lambda: bind(2))
    assert native.current_binding(holder, "bound", (a, b), lambda: bind(2)) is held is holder["bound"]
    assert len(made) == 1
    assert held.version == native.VERSION.now and held.owners == (a, b)
    for n, owners in enumerate(((b, a), (a, b.copy()), (a,), (a, b, a)), start=2):
        rebound = native.current_binding({"bound": held}, "bound", owners, lambda: bind(len(owners)))
        assert rebound is not held and rebound.owners is owners and len(made) == n
    native.VERSION.bump()
    rebound = native.current_binding(holder, "bound", (a, b), lambda: bind(2))
    assert rebound is not held and rebound.version == native.VERSION.now and len(made) == 6
    assert native.current_binding(holder, "bound", (a, b, a, b), lambda: bind(4)) is None and holder["bound"] is None


def test_a_binding_made_while_the_version_moves_is_made_again():
    """The stamp is read before the sources are gathered: a bump while
    ``bind`` runs leaves the new binding stale."""
    holder = {}

    def bind():
        native.VERSION.bump()  # another thread replaces an array meanwhile
        return native.Binding((), ctypes.c_int64(0))

    first = native.current_binding(holder, "bound", (), bind)
    assert first.version != native.VERSION.now
    assert native.current_binding(holder, "bound", (), bind) is not first


def test_replacing_a_bound_attribute_bumps_the_version_and_nothing_else_does():
    """A new object in place of a bound one bumps; first assignments, the
    same object assigned back (an in-place operator) and unbound attributes
    do not, and reads are plain instance-dict reads."""
    from repro.hwsim.cache import LFUCache
    from repro.nn.attention import KVCache
    from repro.nn.linear import Linear
    from repro.nn.module import Parameter

    version = native.VERSION.now
    cache, lfu, linear = KVCache(2, 4, 8), LFUCache(8, 4), Linear(4, 4, seed=0)
    assert native.VERSION.now == version
    cache.length = 3
    cache.lengths += 1
    lfu.token_index += 1
    lfu.cached |= np.ones(8, dtype=bool)
    linear.weight.data *= 2.0
    linear.weight.grad = np.zeros((4, 4))
    assert native.VERSION.now == version and vars(cache)["keys"] is cache.keys
    for owner, name, value in (
        (cache, "keys", cache.keys.copy()),
        (lfu, "frequency", lfu.frequency.copy()),
        (linear.weight, "data", linear.weight.data.copy()),
        (linear, "bias", Parameter(np.zeros(4))),  # None, then a Parameter
        (linear, "weight", copy.deepcopy(linear.weight)),
    ):
        setattr(owner, name, value)
        assert native.VERSION.now != version, name
        version = native.VERSION.now


def test_cache_directory_others_can_write_is_not_used(compiled_kernels, fresh_loader):
    fresh_loader.mkdir(mode=0o700)
    fresh_loader.chmod(0o777)
    assert [kernel.load() for kernel in KERNELS] == [None] * len(KERNELS)
    assert list(fresh_loader.iterdir()) == []


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
def test_copy_serves_on_its_own_caches(compiled_kernels, mlp, clone):
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


def test_copies_serve_concurrently_on_their_own_state(compiled_kernels):
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


def test_cache_arrays_are_bound_again_or_served_by_the_loop(compiled_kernels, monkeypatch, mlp):
    """DIP-CA's step binds an LFU cache through ``current_binding``: a
    replaced ``cached`` array is bound again, and an array the step cannot
    write in place (an int32 ``frequency``) gets the ``cache_aware_step``
    loop's masks and counts instead of an error."""
    rng = np.random.default_rng(9)
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
    method.compute_masks(mlp, 0, rng.normal(size=(3, mlp.d_model)))
    cache, bound = method._caches[(0, "input")], method._bound[(0, "input")]
    cache.cached = cache.cached.copy()
    method.compute_masks(mlp, 0, rng.normal(size=(3, mlp.d_model)))
    assert method._bound[(0, "input")] is not bound and method._bound[(0, "input")].sources[0] is cache.cached

    cache.frequency = cache.frequency.astype(np.int32)
    loop = copy.deepcopy(method)
    x = rng.normal(size=(4, mlp.d_model))
    got = method.compute_masks(mlp, 0, x)
    assert method._bound[(0, "input")] is None
    with monkeypatch.context() as patch:
        patch.setattr(CA_STEP, "load", lambda: None)
        want = loop.compute_masks(mlp, 0, x)
    assert np.array_equal(got.input_mask, want.input_mask) and np.array_equal(got.down_mask, want.down_mask)
    assert (method.stats.hits, method.stats.misses) == (loop.stats.hits, loop.stats.misses)


def test_wrong_width_raises_before_the_kernel(monkeypatch, mlp):
    calls = []

    def kernel(*args):
        calls.append(args)
        return 0

    monkeypatch.setattr(CA_STEP, "load", lambda: kernel)
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
    method.compute_masks(mlp, 0, np.ones((2, mlp.d_model)))
    assert len(calls) == 2  # the input and the down group
    wider = SwiGLUMLP(GLUMLPConfig(d_model=mlp.d_model + 1, d_ffn=mlp.d_ffn), seed=0)
    with pytest.raises(ValueError, match=rf"\({mlp.d_model},\)"):
        method.compute_masks(wider, 0, np.ones((2, wider.d_model)))
    assert len(calls) == 2


# ---------------------------------------------------------------------- ABI
def _c_sources():
    """The text of every compiled file, comments removed."""
    paths = (native.LIBRARY.source, *native.LIBRARY.headers)
    return "\n".join(re.sub(r"/\*.*?\*/", " ", path.read_text(), flags=re.S) for path in paths)


def _c_kind(declaration):
    """``pointer``, ``int64`` or ``double`` for one C parameter or field."""
    if "*" in declaration:
        return "pointer"
    base = declaration.split()[-2] if len(declaration.split()) > 1 else declaration
    return {"int64_t": "int64", "double": "double"}.get(base, f"struct {base}")


def _py_kind(ctype):
    if ctype is ctypes.c_void_p:
        return "pointer"
    if ctype is ctypes.c_int64:
        return "int64"
    if ctype is ctypes.c_double:
        return "double"
    return f"struct {ctype.__name__.lstrip('_').lower()}"


def test_the_ctypes_prototypes_match_the_c_functions():
    """Each exported function's parameters, in order, have the kinds
    ``native._ARGTYPES`` passes: ctypes converts a mismatch without a word."""
    found = {
        name: [_c_kind(parameter.strip()) for parameter in parameters.split(",")]
        for name, parameters in re.findall(r"^int64_t\s+(\w+)\(([^)]*)\)\s*\{", _c_sources(), flags=re.M)
    }
    assert found == {name: [_py_kind(t) for t in types] for name, types in native._ARGTYPES.items()}


def test_the_ctypes_structures_match_the_c_structs():
    """Each struct a kernel reads has the fields, in order and of the kinds,
    of the ``ctypes.Structure`` the bindings fill; ``struct layer`` is the
    three pointers per layer a step binding lays out."""
    from repro.engine.decode_step import _Step
    from repro.nn.decode_attn import _Block, _Cache, _Head
    from repro.sparsity.decode_mlp import _MLP, _Group

    found = {}
    for name, body in re.findall(r"^struct\s+(\w+)\s*\{([^}]*)\};", _c_sources(), flags=re.M):
        fields = []
        for declaration in filter(str.strip, body.split(";")):
            base, *names = declaration.split(",")
            kind = _c_kind(base.strip())
            fields.append((base.split()[-1].lstrip("*"), kind))
            fields += [(n.strip().lstrip("*"), "pointer" if "*" in n else kind) for n in names]
        found[name] = fields
    structures = {"block": _Block, "cache": _Cache, "head": _Head, "group": _Group, "mlp": _MLP, "step": _Step}
    expected = {name: [(field, _py_kind(t)) for field, t in s._fields_] for name, s in structures.items()}
    expected["layer"] = [("block", "pointer"), ("cache", "pointer"), ("mlp", "pointer")]
    assert found == expected
