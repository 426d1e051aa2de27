"""The one-call decode step (``repro.engine.decode_step``) against the
kernels it runs, called one by one through the per-layer path of
``ContinuousBatch.step``: the same logits bit for bit, the same DIP-CA
state, when it serves a step, its checks and its bindings."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from repro.backend import active_backend
from repro.engine import inference
from repro.engine.decode_step import DECODE_STEP, StepBinding, decode_step
from repro.engine.inference import ContinuousBatch, SparseInferenceEngine
from repro.hwsim.cache import LFUCache
from repro.nn import decode_attn
from repro.nn.model_zoo import get_model_spec
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity import decode_mlp
from repro.sparsity.registry import create_method
from repro.training.lora import LoRAConfig, attach_mlp_adapters, fuse_adapters
from repro.utils import native

CONFIG = TransformerConfig(vocab_size=48, d_model=16, n_layers=3, n_heads=4, n_kv_heads=2, d_ffn=32, max_seq_len=64)


@pytest.fixture
def served(compiled_kernels, monkeypatch):
    """Counts the one-call steps the kernel serves: each call's width, for
    the calls its checks did not refuse."""
    calls = []

    def counted(*args):
        done = compiled_kernels["decode_step"](*args)
        if done >= 0:
            calls.append(args[1])  # the step's rows
        return done

    monkeypatch.setattr(DECODE_STEP, "load", lambda: counted)
    return calls


def make_method(name):
    return DynamicInputPruning(0.5) if name == "dip" else CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)


def make_batch(model, method, width, per_layer=False, max_seq_len=None, record_masks=False):
    # Each batch gets its own instance of the ambient backend: the gather
    # backend serves a mask masked-dense on its first sighting and from a
    # gathered plan afterwards, so two batches sharing one instance would
    # round their prefills differently and could not be compared bit for bit.
    backend = type(active_backend())()
    engine = SparseInferenceEngine(model, method, record_masks=record_masks, backend=backend)
    batch = ContinuousBatch.from_engine(engine, max_batch_size=width, max_seq_len=max_seq_len)
    return run_per_layer(batch) if per_layer else batch


def kernel_mlp(engine, block, normed):
    """``engine``'s MLP override, with each one-position DIP/DIP-CA call (a
    decode step, no masks recorded) in the compiled decode MLP, as the
    one-call step runs it; prefill stays on numpy, as in the one-call batch."""
    out = None
    if engine.recorder is None and normed.shape[-2] == 1:
        out = decode_mlp.decode_mlp(engine.method, block.mlp, block.layer_index, normed.reshape(-1, normed.shape[-1]))
    return engine._mlp_override(block, normed) if out is None else out.reshape(normed.shape)


def run_per_layer(batch):
    """Turn ``batch``'s one-call step off: each step then makes one by one the
    kernel calls the one-call step makes at once (the compiled attention and
    head on the slot views, and each MLP through :func:`kernel_mlp`)."""
    batch.fused_step = None
    batch.mlp_override = types.MethodType(kernel_mlp, engine_of(batch))
    return batch


def admit(batch, lengths, seed=0):
    """Prefill prompts of ``lengths`` (on numpy, as every prefill runs) and
    return their slots and first greedy tokens."""
    rng = np.random.default_rng(seed)
    if batch.reset_method is not None:
        batch.reset_method()
    slots, logits = batch.admit([rng.integers(1, CONFIG.vocab_size, size=n) for n in lengths])
    return slots, np.argmax(logits, axis=-1).tolist()


def engine_state(engine):
    method = engine.method
    if not isinstance(method, CacheAwareDIP):
        return None
    caches = {key: (c.cached.copy(), c.frequency.copy(), c.token_index) for key, c in method._caches.items()}
    return caches, (method.stats.hits, method.stats.misses)


def assert_same_state(a, b):
    if a is None:
        assert b is None
        return
    (caches_a, stats_a), (caches_b, stats_b) = a, b
    assert caches_a.keys() == caches_b.keys()
    for key in caches_a:
        assert np.array_equal(caches_a[key][0], caches_b[key][0]), key
        assert np.array_equal(caches_a[key][1], caches_b[key][1]), key
        assert caches_a[key][2] == caches_b[key][2], key
    assert stats_a == stats_b


def kv_state(batch):
    return [(c.keys.copy(), c.values.copy(), c.lengths.copy(), c.length) for c in batch.caches]


def assert_same_kv(a, b):
    for (keys_a, values_a, lengths_a, length_a), (keys_b, values_b, lengths_b, length_b) in zip(a, b):
        assert np.array_equal(keys_a, keys_b) and np.array_equal(values_a, values_b)
        assert np.array_equal(lengths_a, lengths_b) and length_a == length_b


def lockstep(batches, slots, tokens, n_steps):
    """Step every batch ``n_steps`` times on the same tokens (greedy on the
    first batch) and return each batch's per-step logits."""
    logits = [[] for _ in batches]
    for _ in range(n_steps):
        for out, batch in zip(logits, batches):
            out.append(batch.step(slots, tokens))
        tokens = np.argmax(logits[0][-1], axis=-1).tolist()
    return [np.stack(out) for out in logits]


def engine_of(batch):
    return batch.mlp_override.__self__


# ----------------------------------------------------------------- parity
@pytest.fixture
def attended(compiled_kernels, monkeypatch):
    """Counts the per-layer path's compiled attention calls."""
    calls = []

    def counted(*args):
        calls.append(args[2])  # the call's rows
        return compiled_kernels["decode_attn"](*args)

    monkeypatch.setattr(decode_attn.DECODE_ATTN, "load", lambda: counted)
    return calls


RAGGED = {width: [4 + i for i in range(width)] for width in (3, 8)}


@pytest.mark.parametrize(
    "name, lengths, tied",
    [
        ("dip", [7], True),
        ("dip", [5, 9], True),
        ("dip", RAGGED[3], True),
        ("dip", RAGGED[8], True),
        ("dip-ca", [8], True),
        ("dip", [7], False),
    ],
    ids=[
        "dip-width1",
        "dip-width2-ragged",
        "dip-width3-ragged",
        "dip-width8-ragged",
        "dip-ca-width1",
        "dip-untied-head",
    ],
)
def test_logits_and_state_match_the_per_layer_path(served, attended, name, lengths, tied):
    """At any width, a DIP/DIP-CA step runs in one call (no per-layer
    attention call) with the per-layer path's logits, K/V and DIP-CA state."""
    model = CausalLM(dataclasses.replace(CONFIG, tie_embeddings=tied), seed=1)
    fused = make_batch(model, make_method(name), len(lengths))
    per_layer = make_batch(model, make_method(name), len(lengths), per_layer=True)
    slots, tokens = admit(fused, lengths)
    assert admit(per_layer, lengths) == (slots, tokens)
    fused_engine, per_layer_engine = engine_of(fused), engine_of(per_layer)
    n_steps = 40
    for step in range(n_steps):
        attended.clear()
        got = fused.step(slots, tokens)
        assert attended == []
        want = per_layer.step(slots, tokens)
        assert attended == [len(lengths)] * CONFIG.n_layers
        assert np.array_equal(got, want), step
        assert_same_state(engine_state(fused_engine), engine_state(per_layer_engine))
        tokens = np.argmax(want, axis=-1).tolist()
    assert served == [len(lengths)] * n_steps  # every step in one call, none on the per-layer batch
    assert_same_kv(kv_state(fused), kv_state(per_layer))
    if name == "dip-ca":
        assert engine_state(fused_engine)[1][0] > 0  # the caches were hit


# --------------------------------------------------------------- dispatch
def relu_model():
    return CausalLM(dataclasses.replace(CONFIG, activation="relu"), seed=1)


class Ranked(DynamicInputPruning):  # a subclass may rank otherwise
    pass


@pytest.mark.parametrize("case", ["recorder", "dense", "dip-subclass", "relu"])
def test_other_steps_take_the_per_layer_path(served, case):
    model = relu_model() if case == "relu" else CausalLM(CONFIG, seed=1)
    method = {"dense": create_method("dense", target_density=0.5), "dip-subclass": Ranked(0.5)}.get(case)
    lengths = [4]

    def build(per_layer):
        served_method = make_method("dip") if method is None else copy.deepcopy(method)
        return make_batch(model, served_method, 1, per_layer=per_layer, record_masks=case == "recorder")

    fused, per_layer = build(False), build(True)
    slots, tokens = admit(fused, lengths)
    admit(per_layer, lengths)
    got, want = lockstep([fused, per_layer], slots, tokens, 4)
    assert np.array_equal(got, want)
    assert served == []
    if case == "recorder":  # the decode steps' masks were recorded
        assert engine_of(fused).recorder.n_recorded_tokens() == sum(lengths) + 4


def test_without_a_compiler_the_per_layer_path_runs(compiled_kernels, monkeypatch):
    model = CausalLM(CONFIG, seed=1)
    reference = make_batch(model, make_method("dip-ca"), 1, per_layer=True)
    monkeypatch.setattr(native.LIBRARY, "load", lambda: None)
    fused = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(fused, [6])
    assert decode_step(engine_of(fused).method, fused, slots, np.asarray([tokens]).T) is None
    admit(reference, [6])
    got, want = lockstep([fused, reference], slots, tokens, 5)
    assert np.array_equal(got, want)


def test_the_numpy_side_of_decode_path_turns_the_step_off(decode_path):
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip"), 1)
    slots, tokens = admit(batch, [5])
    served = decode_step(engine_of(batch).method, batch, slots, np.asarray([tokens]).T)
    assert (served is None) == (decode_path == "numpy")


# ------------------------------------------------------------------ checks
def bad_step(batch, case):
    """Set up ``case`` on a width-1 batch and return the step's arguments and the error it must raise."""
    if case == "negative-slot":
        return ([-1], [3]), ValueError, r"lie in \[0, 1\)"
    if case == "duplicate-slots":
        return ([0, 0], [3, 3]), ValueError, "distinct"
    if case == "kv-overflow":
        cache = batch.caches[-1]  # a deeper layer than the step's own check reads
        cache.lengths[0] = cache.max_seq_len
        return ([0], [3]), RuntimeError, "KV cache overflow"
    assert case == "past-the-rope-table"
    return ([0], [3]), ValueError, "exceed the RoPE table length"


@pytest.mark.parametrize("case", ["negative-slot", "duplicate-slots", "kv-overflow", "past-the-rope-table"])
def test_bad_steps_raise_before_any_state_changes(served, case):
    """Each raises the per-layer path's error; the one-call path raises it
    before any length, K/V entry or DIP-CA cache changes."""
    model = CausalLM(CONFIG, seed=1)
    past_the_table = case == "past-the-rope-table"

    def fail(per_layer):
        max_seq_len = CONFIG.max_seq_len + 4 if past_the_table else 24
        batch = make_batch(model, make_method("dip-ca"), 1, per_layer=per_layer, max_seq_len=max_seq_len)
        slots, tokens = admit(batch, [CONFIG.max_seq_len] if past_the_table else [6])
        if not past_the_table:
            batch.step(slots, tokens)
        args, error, match = bad_step(batch, case)
        before = kv_state(batch), engine_state(engine_of(batch))
        with pytest.raises(error, match=match):
            batch.step(*args)
        return batch, before

    fail(per_layer=True)
    batch, (kv, state) = fail(per_layer=False)
    assert_same_kv(kv_state(batch), kv)
    assert_same_state(engine_state(engine_of(batch)), state)
    assert len(served) == (0 if past_the_table else 1)


@pytest.mark.parametrize("per_layer", [False, True], ids=["one-call", "per-layer"])
@pytest.mark.parametrize("width", [1, 8])
@pytest.mark.parametrize("bad", [-1, CONFIG.vocab_size])
def test_ids_outside_the_vocabulary_raise_before_any_state_changes(served, per_layer, width, bad):
    """Id -1 would embed the last vocabulary row and an id past the table
    fail in numpy's indexing; the step refuses both on either path before
    any length, K/V entry or DIP-CA cache changes (DIP-CA decodes at width 1
    only)."""
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca" if width == 1 else "dip"), width, per_layer=per_layer)
    slots, tokens = admit(batch, RAGGED[8][:width])
    batch.step(slots, tokens)
    before = kv_state(batch), engine_state(engine_of(batch))
    with pytest.raises(ValueError, match=rf"token ids must lie in \[0, {CONFIG.vocab_size}\), got {bad}"):
        batch.step(slots, tokens[:-1] + [bad])
    assert_same_kv(kv_state(batch), before[0])
    assert_same_state(engine_state(engine_of(batch)), before[1])
    assert len(served) == (0 if per_layer else 1)


@pytest.mark.parametrize("slots, match", [([-1], r"lie in \[0, 2\)"), ([2], r"lie in \[0, 2\)"), ([1, 1], "distinct")])
def test_decode_step_checks_each_layer_s_slots(served, slots, match):
    """The step checks slots itself, through the attention binding's helper,
    whoever calls it."""
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip"), 2)
    admit(batch, [4, 6])
    kv = kv_state(batch)
    with pytest.raises(ValueError, match=match):
        decode_step(engine_of(batch).method, batch, slots, np.ones((len(slots), 1), dtype=np.int64))
    assert_same_kv(kv_state(batch), kv)
    assert served == []


@pytest.mark.parametrize("done", [0, 3])
def test_failed_scratch_allocation_raises(compiled_kernels, monkeypatch, done):
    """A layer that cannot allocate stops the step: the layers before it
    have advanced, as they would have on the per-layer path."""
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(batch, [5])
    method = engine_of(batch).method
    indices = {key: cache.token_index for key, cache in method._caches.items()}

    def halves_run(step, width, slots, ids, counts, logits):
        for layer, cache in enumerate(batch.caches):  # what the kernel's checks write
            counts[len(batch.caches) + layer] = cache.lengths[slots[0]]
        return done

    monkeypatch.setattr(DECODE_STEP, "load", lambda: halves_run)
    with pytest.raises(MemoryError):
        batch.step(slots, tokens)
    # Layer 0 ran whole, layer 1 its attention half only (the kernel stub wrote no lengths).
    assert [cache.length for cache in batch.caches] == ([6, 6, 5] if done else [5, 5, 5])
    advanced = {key: cache.token_index - indices[key] for key, cache in method._caches.items()}
    assert advanced == {key: int(done > 0 and key[0] == 0) for key in advanced}


# ---------------------------------------------------------------- bindings
def replace_weights(model, how):
    if how == "load_state_dict":
        model.load_state_dict(CausalLM(CONFIG, seed=2).state_dict())  # every parameter gets a new array
        return
    adapters = attach_mlp_adapters(model, LoRAConfig(rank=2, seed=4))
    rng = np.random.default_rng(5)
    for layer in adapters:
        for adapter in (layer.up, layer.gate, layer.down):
            adapter.B.data = rng.normal(0, 0.2, size=adapter.B.data.shape)
    fuse_adapters(model, adapters)  # replaces the MLP weights


def replace_cache_arrays(batch, how):
    if how == "kv-cache":
        cache = batch.caches[1]
        cache.keys = cache.keys.copy()
        return
    for cache in engine_of(batch).method._caches.values():
        cache.cached = cache.cached.copy()


@pytest.mark.parametrize("how", ["load_state_dict", "fuse_adapters", "kv-cache", "lfu-cache"])
def test_replaced_arrays_are_bound_again(served, how):
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(batch, [6])
    for _ in range(3):
        tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    if how in ("load_state_dict", "fuse_adapters"):
        replace_weights(model, how)
    else:
        replace_cache_arrays(batch, how)
    reference = run_per_layer(copy.deepcopy(batch))  # binds its own arrays on first use
    got, want = lockstep([batch, reference], slots, tokens, 4)
    assert np.array_equal(got, want)
    assert_same_kv(kv_state(batch), kv_state(reference))
    assert_same_state(engine_state(engine_of(batch)), engine_state(engine_of(reference)))
    assert len(served) == 3 + 4


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))], ids=["deepcopy", "pickle"])
def test_copies_hold_no_addresses_and_decode_on_their_own_state(served, clone):
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(batch, [6])
    tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    copied = clone(batch)
    engine = engine_of(copied)
    assert engine.model is copied.model and copied.reset_method.__self__ is engine
    assert all(block._bound is None for block in copied.model.blocks)
    assert all(cache._bound is None for cache in copied.caches)
    assert engine.method._bound == {}
    kv, state = kv_state(batch), engine_state(engine_of(batch))
    from_copy = copied.step(slots, tokens)
    assert_same_kv(kv_state(batch), kv)  # the copy wrote only its own state
    assert_same_state(engine_state(engine_of(batch)), state)
    assert np.array_equal(batch.step(slots, tokens), from_copy)
    assert_same_state(engine_state(engine_of(batch)), engine_state(engine))
    assert len(served) == 3


def test_a_batch_binds_once_and_again_when_a_source_changes(served, monkeypatch):
    """A served step checks slots and positions, not arrays: the batch's one
    binding holds every layer and the head, and is made again, through the
    per-layer helpers' checks, when an array or scalar has been replaced."""
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(batch, [6])
    tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    bound = batch._bound
    assert isinstance(bound, StepBinding)
    checks = []
    for module in (decode_attn, decode_mlp):
        fits = module._fits
        monkeypatch.setattr(module, "_fits", lambda *args, fits=fits: checks.append(args) or fits(*args))
    tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    assert batch._bound is bound and checks == []
    for replace in (
        lambda: setattr(model.final_norm, "eps", 1e-5),  # a scalar of the head
        lambda: setattr(model.blocks[2].mlp.gate, "data", model.blocks[2].mlp.w_gate.copy()),
        lambda: setattr(engine_of(batch).method, "gamma", 0.3),
    ):
        replace()
        reference = run_per_layer(copy.deepcopy(batch))
        got, want = lockstep([batch, reference], slots, tokens, 1)
        assert np.array_equal(got, want)
        assert batch._bound is not bound and checks
        bound, checks[:] = batch._bound, []
    assert len(served) == 2 + 3


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))], ids=["deepcopy", "pickle"])
def test_copies_drop_the_step_and_head_bindings(served, clone):
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip"), 1)
    slots, tokens = admit(batch, [6])
    batch.step(slots, tokens)
    assert batch._bound is not None and model._bound is not None
    copied = clone(batch)
    assert copied._bound is None and copied.model._bound is None
    assert np.array_equal(copied.step(slots, tokens), batch.step(slots, tokens))


def test_the_one_call_step_runs_outside_the_backend_scope(served, monkeypatch):
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip"), 1)
    slots, tokens = admit(batch, [6])
    scopes = []
    monkeypatch.setattr(inference, "use_backend", lambda backend: scopes.append(backend) or contextlib.nullcontext())
    batch.step(slots, tokens)
    assert scopes == [] and len(served) == 1
    batch.fused_step = None
    batch.step(slots, tokens)
    assert scopes == [batch.backend]


def test_threads_decode_one_model_and_method_on_their_own_batches(served):
    """Threads whose first steps bind one model's fresh blocks and one DIP
    method's layers at once, each through its own batch, get the logits each
    gets alone: a step holds the bindings it checked until its call returns."""
    model, method = CausalLM(CONFIG, seed=3), make_method("dip")

    def run(seed, admitted=None):
        batch = make_batch(model, method, 1)
        slots, tokens = admit(batch, [5], seed=seed)
        if admitted is not None:  # the threads' first steps bind the fresh blocks at once
            admitted.wait(timeout=60)
        return lockstep([batch], slots, tokens, 16)[0]

    expected = [run(seed) for seed in range(4)]
    results = [None] * len(expected)
    admitted = threading.Barrier(len(expected))

    def worker(i):
        results[i] = run(i, admitted)

    for block in model.blocks:
        block._bound = None
    method._bound.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(expected))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)
    assert len(served) == 2 * 16 * len(expected)


# ---------------------------------------------------------------- versions
#: The paths of ``decode_attn.block_state``, in its order.
BLOCK_PATHS = (
    "attention.q_proj.weight.data",
    "attention.k_proj.weight.data",
    "attention.v_proj.weight.data",
    "attention.o_proj.weight.data",
    "attention_norm.weight.data",
    "mlp_norm.weight.data",
    "attention.rope.cos",
    "attention.rope.sin",
    "attention_norm.eps",
    "mlp_norm.eps",
    "attention.q_proj.bias",
    "attention.k_proj.bias",
    "attention.v_proj.bias",
    "attention.o_proj.bias",
    "attention.config",
)


def place(root, path):
    """``(owner, name)`` of the attribute ``path`` leads to from ``root``."""
    *links, name = path.split(".")
    for link in links:
        root = getattr(root, link)
    return root, name


def source_places(batch, method):
    """Where each object ``decode_step._sources`` gathers sits, in its order:
    ``(owner, name)`` for an attribute, ``(dict, key)`` for a dict item."""
    model, places = batch.model, []
    for block, cache in zip(model.blocks, batch.caches):
        places += [place(block, path) for path in BLOCK_PATHS]
        places += [(cache, name) for name in ("keys", "values", "lengths")]
        places += [place(block.mlp, path) for path in ("config", "up.data", "gate.data", "down.data")]
        places += [(method, "allocation"), (method, "gamma")]
        keys = [(block.layer_index, group) for group in ("input", "down")]
        places += [(method._caches, key) for key in keys]
        places += [(method._caches[key], name) for key in keys for name in ("cached", "frequency", "capacity_units")]
    places += [(model.final_norm.weight, "data"), (model.embedding.weight, "data"), (model.final_norm, "eps")]
    places += [(model, "lm_head"), (model, "config"), (model.embedding.weight, "data"), (batch, "occupied")]
    return places


def read(owner, key):
    return getattr(owner, key) if isinstance(key, str) else owner[key]


def write(owner, key, value):
    if isinstance(key, str):
        setattr(owner, key, value)
    else:
        owner[key] = value


def replacement(value):
    """An equal object that is not ``value``, or ``None`` when there is none
    (``None`` itself, a small int): such a source is replaced by another
    object and put back."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, float):
        return value + 0.0
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value)
    if isinstance(value, LFUCache):
        return copy.deepcopy(value)
    return None


def test_every_source_replaced_through_its_owner_binds_again(served):
    """Replacing any object a step binding is made from, through the
    attribute, list item or dict item that holds it, makes the next step
    bind again, with the per-layer path's logits bit for bit: no source
    slips past the version."""
    from repro.engine.decode_step import _sources

    model = CausalLM(get_model_spec("phi3-medium").sim_config, seed=0)
    batch = make_batch(model, make_method("dip-ca"), 1)
    engine, seed = engine_of(batch), [0]

    def readmit():
        if batch.occupied[0]:
            batch.evict(0)
        seed[0] += 1
        return admit(batch, [4], seed=seed[0])

    slots, tokens = readmit()
    tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    method = engine.method
    sources, places = _sources(model, method, batch.caches, batch.occupied), source_places(batch, method)
    assert len(sources) == len(places) == 6 * 32 + 7
    assert all(read(owner, key) is source for (owner, key), source in zip(places, sources))
    def with_copy(items, i):
        return items[:i] + (copy.deepcopy(items[i]),) + items[i + 1 :]

    cases = [(owner, key, None) for owner, key in places]  # attributes and DIP-CA's dict items
    cases += [(model.blocks, i, lambda i=i: copy.deepcopy(model.blocks[i])) for i in range(6)]  # list items
    cases += [(batch, "caches", lambda i=i: with_copy(batch.caches, i)) for i in range(6)]  # the batch's tuple
    for owner, key, make in cases:
        if batch.caches[0].lengths[slots[0]] + 2 >= model.config.max_seq_len:
            slots, tokens = readmit()
            tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
        bound, value = batch._bound, read(owner, key)
        new = make() if make is not None else replacement(value)
        if new is None:
            write(owner, key, object())
            write(owner, key, value)
        else:
            write(owner, key, new)
        reference = run_per_layer(copy.deepcopy(batch))
        got, want = lockstep([batch, reference], slots, tokens, 1)
        assert np.array_equal(got, want), (key, type(owner))
        assert batch._bound is not bound and isinstance(batch._bound, StepBinding), (key, type(owner))
        tokens = np.argmax(want[0], axis=-1).tolist()


def serve(batch, lengths, budgets, seed=0):
    """Serve one request per length through a decoder, as the scheduler
    does, and return the steps run.  Every prompt starts with one 8-token
    head."""
    rng = np.random.default_rng(seed)
    head = rng.integers(1, CONFIG.vocab_size, size=8)
    decoder = inference.ContinuousDecoder(batch)
    for i, (length, budget) in enumerate(zip(lengths, budgets)):
        prompt = np.concatenate([head, rng.integers(1, CONFIG.vocab_size, size=length)])
        decoder.submit(inference.DecodeRequest(str(i), prompt, budget))
    steps = 0
    while not decoder.idle:
        decoder.admit()
        steps += bool(decoder.step())
    return steps


@pytest.mark.parametrize("name, width", [("dip-ca", 1), ("dip", 8)])
def test_serving_bumps_no_version_and_binds_once(served, name, width):
    """Steps, admissions (prefix-cache hits and their staging caches
    included), evictions and DIP-CA's resets replace nothing a binding
    reads: over 200 steps the version does not move and the batch keeps
    the binding its first step made."""
    from repro.nn.prefix_cache import PrefixCache

    model = CausalLM(CONFIG, seed=1)
    method = make_method(name)
    engine = SparseInferenceEngine(model, method)
    prefix = None if method.requires_cache_state else PrefixCache(max_bytes=1 << 22, block_size=4)
    batch = ContinuousBatch.from_engine(engine, max_batch_size=width, prefix_cache=prefix)
    serve(batch, [5], [3], seed=9)  # the first binding
    bound, version = batch._bound, native.VERSION.now
    assert isinstance(bound, StepBinding)
    n_requests, longest = (50, 8) if width == 1 else (140, 24)
    lengths = [1 + (i * 7) % 12 for i in range(n_requests)]
    budgets = [3 + (i * 5) % (longest - 2) for i in range(n_requests)]
    assert serve(batch, lengths, budgets) >= 200
    assert native.VERSION.now == version and batch._bound is bound
    if prefix is not None:
        assert batch.prefill_tokens_forwarded < batch.prefill_tokens_total  # prefix hits were served


def test_an_array_replaced_while_a_binding_is_made_binds_again(served, monkeypatch):
    """A binding is stamped with the version read before it gathers: an
    array replaced after its layer was gathered, while later layers are,
    makes the next step bind again."""
    model = CausalLM(CONFIG, seed=1)
    batch = make_batch(model, make_method("dip-ca"), 1)
    slots, tokens = admit(batch, [6])
    gather, gathered = decode_attn.block_state, []

    def gather_then_replace(block):
        gathered.append(block)
        if len(gathered) == 2:  # layer 0 is bound; replace one of its weights
            weight = model.blocks[0].attention.q_proj.weight
            weight.data = weight.data.copy()
        return gather(block)

    monkeypatch.setattr(decode_attn, "block_state", gather_then_replace)
    tokens = np.argmax(batch.step(slots, tokens), axis=-1).tolist()
    first = batch._bound
    monkeypatch.setattr(decode_attn, "block_state", gather)
    reference = run_per_layer(copy.deepcopy(batch))
    got, want = lockstep([batch, reference], slots, tokens, 2)
    assert np.array_equal(got, want)
    assert batch._bound is not first and len(served) == 3
    assert batch._bound.layers[0][0].sources[0] is model.blocks[0].attention.q_proj.weight.data
