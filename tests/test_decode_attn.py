"""The compiled decode attention (``repro.nn.decode_attn``) against the numpy
path it replaces for slot-view decode steps, greedy parity on both paths,
and an oracle that runs none of the compiled decode kernels."""

from __future__ import annotations

import asyncio
import collections
import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, serve_continuous_greedy
from repro.nn import transformer
from repro.nn.attention import KVCache
from repro.nn.decode_attn import decode_attention, decode_head
from repro.nn.module import Parameter
from repro.nn.transformer import CausalLM, TransformerBlock, TransformerConfig
from repro.pipeline.session import SparseSession
from repro.serving import ContinuousBatchingScheduler, GenerationRequest, SchedulerConfig
from repro.sparsity.base import DenseBaseline
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.registry import REGISTRY
from repro.utils import native

HEADS = [(4, 2), (2, 1), (2, 2)]  # (n_heads, n_kv_heads); (2, 1) is the tiny config's


def make_block(n_heads, n_kv_heads, head_dim, rope_len, seed):
    d_model = n_heads * head_dim
    config = TransformerConfig(
        vocab_size=8, d_model=d_model, n_layers=1, n_heads=n_heads, n_kv_heads=n_kv_heads, d_ffn=8, max_seq_len=rope_len
    )
    block = TransformerBlock(config, 0, seed=seed)
    rng = np.random.default_rng(seed)
    block.attention_norm.weight.data = rng.uniform(0.5, 1.5, d_model)
    block.mlp_norm.weight.data = rng.uniform(0.5, 1.5, d_model)
    return block


def numpy_half(block, x, view):
    """The attention half on the numpy path: what the kernel must reproduce."""
    h = x + block.attention.forward_array(block.attention_norm.forward_array(x), view)
    return h, block.mlp_norm.forward_array(h)


def kernel_half(block, x, view):
    out = decode_attention(block, x, view)
    assert out is not None, "the kernel declined a call it should serve"
    return out


def filled_cache(block, max_seq_len, batch_size, lengths, rng):
    """A cache whose every entry is random, tails past each length included,
    so a kernel that read past a slot's length would be seen."""
    cfg = block.attention.config
    cache = KVCache(cfg.n_kv_heads, cfg.head_dim, max_seq_len, batch_size=batch_size)
    cache.keys[:] = rng.normal(size=cache.keys.shape)
    cache.values[:] = rng.normal(size=cache.values.shape)
    cache.lengths[:] = lengths
    cache.length = int(max(lengths))
    return cache


@st.composite
def decode_cases(draw):
    n_heads, n_kv_heads = draw(st.sampled_from(HEADS))
    head_dim = draw(st.sampled_from([2, 4, 10, 18]))  # dot products shorter and longer than 8 lanes
    max_seq_len = draw(st.integers(min_value=1, max_value=12))
    width = draw(st.integers(min_value=1, max_value=8))
    n_slots = draw(st.integers(min_value=width, max_value=10))
    slots = draw(st.permutations(range(n_slots)))[:width]  # any subset, any order
    lengths = draw(st.lists(st.integers(0, max_seq_len - 1), min_size=n_slots, max_size=n_slots))
    return n_heads, n_kv_heads, head_dim, max_seq_len, slots, lengths, draw(st.integers(0, 2**32 - 1))


def build(case):
    """``(block, x, cache, slots)`` of one drawn case; the RoPE table is
    longer than the cache so positions past it are valid."""
    n_heads, n_kv_heads, head_dim, max_seq_len, slots, lengths, seed = case
    rng = np.random.default_rng(seed)
    block = make_block(n_heads, n_kv_heads, head_dim, max_seq_len + 8, seed)
    cache = filled_cache(block, max_seq_len, len(lengths), lengths, rng)
    x = rng.normal(size=(len(slots), 1, block.attention.config.d_model))
    return block, x, cache, slots


def written_positions(cache, slots, lengths):
    """Boolean mask of the cache entries one decode step writes."""
    where = np.zeros(cache.keys.shape, dtype=bool)
    for slot in slots:
        where[slot, :, lengths[slot]] = True
    return where


class TestKernelAgainstNumpy:
    @given(case=decode_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_path(self, compiled_kernels, case):
        block, x, cache, slots = build(case)
        before = copy.deepcopy(cache)
        theirs = copy.deepcopy(cache)
        h, mlp_in = kernel_half(block, x, cache.slot_view(slots))
        h_ref, mlp_in_ref = numpy_half(block, x, theirs.slot_view(slots))
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mlp_in, mlp_in_ref, rtol=0, atol=1e-12)

        # K/V land exactly where numpy's append puts them; nothing else moves.
        where = written_positions(cache, slots, before.lengths)
        for ours, ref, old in ((cache.keys, theirs.keys, before.keys), (cache.values, theirs.values, before.values)):
            assert np.array_equal(ours[~where], old[~where])
            assert np.array_equal(ref[~where], old[~where])
            np.testing.assert_allclose(ours[where], ref[where], rtol=0, atol=1e-12)
        assert np.array_equal(cache.lengths, theirs.lengths)
        assert cache.length == theirs.length

        # A row's numbers do not depend on the batch around it.
        for row, slot in enumerate(slots):
            h1, mlp_in1 = kernel_half(block, x[row : row + 1], copy.deepcopy(before).slot_view([slot]))
            assert np.array_equal(h1[0], h[row]) and np.array_equal(mlp_in1[0], mlp_in[row])

    def test_overflow_raises_before_any_write(self, compiled_kernels):
        rng = np.random.default_rng(0)
        block = make_block(4, 2, 4, rope_len=16, seed=0)
        cache = filled_cache(block, 6, 3, [3, 6, 0], rng)
        before = copy.deepcopy(cache)
        with pytest.raises(RuntimeError, match="KV cache overflow"):
            decode_attention(block, rng.normal(size=(2, 1, 16)), cache.slot_view([0, 1]))
        assert np.array_equal(cache.keys, before.keys) and np.array_equal(cache.values, before.values)
        assert np.array_equal(cache.lengths, before.lengths) and cache.length == before.length

    @pytest.mark.parametrize("bad", [0, 3, -1], ids=["repeated", "past-the-end", "negative"])
    def test_bad_slots_raise_before_any_write(self, compiled_kernels, bad):
        rng = np.random.default_rng(2)
        block = make_block(2, 1, 4, rope_len=16, seed=2)
        cache = filled_cache(block, 8, 3, [3, 2, 1], rng)
        before = copy.deepcopy(cache)
        view = cache.slot_view([0, 1])
        view.slots[1] = bad  # the kernel writes by slot: it checks them on every call
        with pytest.raises(ValueError, match="distinct and lie in"):
            decode_attention(block, rng.normal(size=(2, 1, 8)), view)
        assert np.array_equal(cache.keys, before.keys) and np.array_equal(cache.lengths, before.lengths)

    @pytest.mark.parametrize("kind", ["lockstep", "slot-view"])
    def test_bad_mask_leaves_the_cache_unchanged(self, decode_path, kind):
        """A forward that raises on its key mask has written nothing, on
        either decode path: a lock-step cache's mask of the wrong width, or a
        slot view given a mask at all."""
        rng = np.random.default_rng(4)
        block = make_block(2, 1, 4, rope_len=16, seed=4)
        cache = filled_cache(block, 8, 1, [3], rng)
        before = copy.deepcopy(cache)
        if kind == "lockstep":
            target, match = cache, "covers 2 key positions, expected 4"
        else:
            target, match = cache.slot_view([0]), "slot view sets its own"
        with pytest.raises(ValueError, match=match):
            block.forward_array(rng.normal(size=(1, 1, 8)), target, attention_mask=np.zeros((1, 2)))
        assert cache.length == before.length and np.array_equal(cache.lengths, before.lengths)
        assert np.array_equal(cache.keys, before.keys) and np.array_equal(cache.values, before.values)

    def test_slot_views_take_no_mask_or_positions(self, decode_path):
        block = make_block(2, 1, 4, rope_len=16, seed=2)
        cache = filled_cache(block, 8, 2, [2, 3], np.random.default_rng(2))
        x = np.zeros((1, 1, 8))
        for kwargs in ({"attention_mask": np.zeros((1, 3))}, {"position_ids": np.zeros((1, 1), dtype=np.int64)}):
            with pytest.raises(ValueError, match="slot view sets its own"):
                block.forward_array(x, cache.slot_view([0]), **kwargs)

    def test_other_inputs_take_the_numpy_path(self, compiled_kernels):
        block = make_block(2, 1, 4, rope_len=16, seed=3)
        cache = filled_cache(block, 8, 1, [2], np.random.default_rng(3))
        view = cache.slot_view([0])
        assert decode_attention(block, np.zeros((1, 8)), cache) is None  # a plain cache: the oracle's decode
        assert decode_attention(block, np.zeros((1, 2, 8)), view) is None  # two tokens: prefill
        assert decode_attention(block, np.zeros((1, 8)), None) is None  # no cache
        assert decode_attention(block, np.zeros((1, 1, 8), dtype=np.float32), view) is None
        assert cache.lengths.tolist() == [2] and cache.length == 2


# ----------------------------------------------------------------- bindings
CONFIG = TransformerConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ffn=32, max_seq_len=24)


# --------------------------------------------------------------------- head
def head_model(tied, seed=4):
    model = CausalLM(dataclasses.replace(CONFIG, tie_embeddings=tied), seed=seed)
    model.final_norm.weight.data = np.random.default_rng(seed).uniform(0.5, 1.5, CONFIG.d_model)
    return model


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "lm_head"])
def test_head_matches_numpy_and_serves_one_position(compiled_kernels, monkeypatch, tied):
    """The compiled head agrees with numpy (``logits_array``) within 1e-12,
    a row's logits do not depend on its neighbours, and ``forward_array``
    sends it the one position of a slot-view step, but not the last
    position of a prefill."""
    model = head_model(tied)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 1, CONFIG.d_model))
    got = decode_head(model, x)
    assert got.shape == (3, 1, CONFIG.vocab_size)
    for row in range(3):
        assert np.array_equal(decode_head(model, x[row]), got[row])
    np.testing.assert_allclose(got, model.logits_array(x), rtol=0, atol=1e-12)

    heads = []
    monkeypatch.setattr(transformer, "decode_head", lambda *args: heads.append(args[1].shape) or decode_head(*args))
    caches = model.new_kv_caches(16, batch_size=2)
    model.forward_array(np.ones((2, 3), dtype=np.int64), kv_caches=caches, last_only=True)
    assert heads == []
    model.forward_array(np.ones((2, 1), dtype=np.int64), kv_caches=[cache.slot_view([1, 0]) for cache in caches])
    assert heads == [(2, 1, CONFIG.d_model)]


def test_a_head_with_a_bias_takes_the_numpy_path(compiled_kernels):
    model = head_model(tied=False)
    model.lm_head.bias = Parameter(np.arange(CONFIG.vocab_size, dtype=np.float64))
    x = np.random.default_rng(6).normal(size=(2, 1, CONFIG.d_model))
    assert decode_head(model, x) is None
    normed = model.final_norm.forward_array(x)
    np.testing.assert_allclose(model.logits_array(x), normed @ model.lm_head.weight.data.T + model.lm_head.bias.data)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
def test_copies_drop_the_head_binding_and_replaced_arrays_are_bound_again(compiled_kernels, clone):
    model, other = head_model(tied=True), head_model(tied=True, seed=7)
    x = np.random.default_rng(8).normal(size=(2, 1, CONFIG.d_model))
    expected = decode_head(model, x)
    assert model._bound is not None
    copied = clone(model)
    assert copied._bound is None
    model.embedding.weight.data[:] = 0.0  # the original's bound weights, zeroed in place
    assert np.array_equal(decode_head(copied, x), expected)
    model.load_state_dict(other.state_dict())  # every parameter gets a new array
    assert np.array_equal(decode_head(model, x), decode_head(other, x))


def decode(model, caches=None, n_steps=5):
    """Logits of a fixed prompt's decode steps, through slot views of
    one-slot caches (the compiled attention and head)."""
    if caches is None:
        caches = model.new_kv_caches(16)
        model.forward_array(np.arange(1, 6), kv_caches=caches)
    views = [cache.slot_view([0]) for cache in caches]
    return np.concatenate([model.forward_array(np.asarray([[t]]), kv_caches=views)[0] for t in range(n_steps)])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
def test_copy_of_a_decoded_model_serves_on_its_own_arrays(compiled_kernels, clone):
    model = CausalLM(CONFIG, seed=1)
    caches = model.new_kv_caches(16)
    model.forward_array(np.arange(1, 6), kv_caches=caches)
    decode(model, caches, n_steps=2)  # binds the blocks and the caches
    assert all(block._bound is not None for block in model.blocks) and caches[0]._bound is not None
    copied, copied_caches = clone(model), clone(caches)
    assert all(block._bound is None for block in copied.blocks) and copied_caches[0]._bound is None
    expected = decode(copied, copy.deepcopy(copied_caches))
    cache_before = copy.deepcopy(caches)
    for block in model.blocks:  # the original's bound weights, zeroed in place
        block.attention.q_proj.weight.data[:] = 0.0
        block.attention.o_proj.weight.data[:] = 0.0
    np.testing.assert_array_equal(decode(copied, copied_caches), expected)
    for ours, theirs in zip(caches, cache_before):
        assert np.array_equal(ours.keys, theirs.keys) and np.array_equal(ours.lengths, theirs.lengths)


def test_replaced_arrays_are_bound_again(compiled_kernels):
    model, other = CausalLM(CONFIG, seed=1), CausalLM(CONFIG, seed=2)
    expected = decode(other)
    decode(model)
    model.load_state_dict(other.state_dict())  # every parameter gets a new array
    np.testing.assert_array_equal(decode(model), expected)

    caches, fresh = model.new_kv_caches(16), model.new_kv_caches(16)
    for each in (caches, fresh):
        model.forward_array(np.arange(1, 6), kv_caches=each)
        decode(model, each, n_steps=1)  # binds each cache
    replaced = []
    for cache in caches:  # new arrays with the same contents
        replaced.append((cache.keys, cache.keys.copy()))
        cache.keys, cache.values, cache.lengths = cache.keys.copy(), cache.values.copy(), cache.lengths.copy()
    np.testing.assert_array_equal(decode(model, caches, n_steps=2), decode(model, fresh, n_steps=2))
    for cache, (old, snapshot) in zip(caches, replaced):
        assert cache.lengths.tolist() == [8] and cache.length == 8
        assert np.array_equal(old, snapshot)  # the replaced array saw no write


def test_threads_decode_one_model_on_their_own_caches(compiled_kernels):
    """The kernel runs without the interpreter lock, and a fresh model binds
    its blocks in whichever thread decodes first: threads decoding one model
    at once, each through slot views of its own caches, get the logits each
    gets alone."""
    model = CausalLM(CONFIG, seed=3)
    prompts = [np.random.default_rng(seed).integers(0, 32, size=5) for seed in range(4)]

    def run(prompt):
        caches = model.new_kv_caches(24)
        model.forward_array(prompt, kv_caches=caches)
        return decode(model, caches, n_steps=16)

    expected = [run(prompt) for prompt in prompts]
    for block in model.blocks:
        block._bound = None
    results = [None] * len(prompts)

    def worker(i):
        results[i] = run(prompts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(prompts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------------- parity
METHODS = tuple(sorted(REGISTRY.names()))


@pytest.mark.parametrize("method_name", METHODS)
def test_greedy_parity_on_every_decode_surface(
    decode_path, method_name, trained_tiny_model, calibration_sequences, eval_sequences
):
    """generate, generate_batch on ragged prompts, serve_continuous_greedy and
    the scheduler give the oracle's tokens on this decode path."""
    session = SparseSession(
        trained_tiny_model,
        method_name,
        calibration_sequences=calibration_sequences,
        eval_sequences=eval_sequences,
        model_name="tiny",
    )
    session.calibrate()
    engine = session.engine
    stateful = engine.method.requires_cache_state
    prompts = [calibration_sequences[i][:n] for i, n in enumerate((6, 11, 9, 4))]
    budget = 6

    def oracle(prompt):
        engine.reset()  # width-1 serving resets a cache-state method per request
        return engine.generate(prompt, budget, temperature=0.0)

    expected = [oracle(p) for p in prompts]

    engine.reset()
    if stateful:  # generate_batch decodes a cache-state method prompt after prompt
        sequential = [engine.generate(p, budget, temperature=0.0) for p in prompts]
        engine.reset()
    else:
        sequential = expected
    batched = engine.generate_batch(prompts, budget, temperature=0.0)
    longest = max(len(p) for p in prompts)
    for row, prompt, want in zip(batched, prompts, sequential):
        assert np.array_equal(row[longest - len(prompt) :], want)

    width = 1 if stateful else 3
    batch = ContinuousBatch.from_engine(engine, max_batch_size=width, max_seq_len=32)
    for got, want in zip(serve_continuous_greedy(batch, prompts, [budget] * len(prompts)), expected):
        assert np.array_equal(got, want)

    async def schedule():
        config = SchedulerConfig(max_batch_size=3, max_seq_len=32)
        requests = [GenerationRequest(prompt=tuple(int(t) for t in p), max_new_tokens=budget) for p in prompts]
        async with ContinuousBatchingScheduler(session.share_calibration(), config) as scheduler:
            return await asyncio.gather(*[scheduler.submit(request) for request in requests])

    for result, want in zip(asyncio.run(schedule()), expected):
        assert np.array_equal(result.full_sequence(), want)


def test_ragged_decode_logits_match_each_row_alone(decode_path, trained_tiny_model, calibration_sequences):
    """Each row's per-step logits from ContinuousBatch.step equal that row's
    decoded alone and unpadded by the oracle, within 1e-9.  The dense method
    keeps every mask fixed, so only the attention can move them: greedy
    tokens do not see pad keys that leak a little weight into a ragged
    decode, these logits do."""
    model = trained_tiny_model
    engine = SparseInferenceEngine(model, DenseBaseline())
    prompts = [calibration_sequences[i][:n] for i, n in enumerate((6, 11, 9, 4))]
    budget = 6

    def recorded(run):
        """``run()``'s result and the logits of every model forward it made."""
        seen, forward = [], model.forward_array

        def record(*args, **kwargs):
            seen.append(forward(*args, **kwargs))
            return seen[-1]

        model.forward_array = record  # shadows the method for this model only
        try:
            return run(), seen
        finally:
            del model.forward_array

    alone = []
    for prompt in prompts:
        _, seen = recorded(lambda: engine.generate(prompt, budget, temperature=0.0))
        alone.append(np.array([logits[-1] for logits in seen]))  # (budget, vocab)

    batch = ContinuousBatch.from_engine(engine, max_batch_size=len(prompts), max_seq_len=32)
    slots, logits = batch.admit(prompts)
    stepped = [logits]
    for _ in range(budget - 1):
        stepped.append(batch.step(slots, np.argmax(stepped[-1], axis=-1)))
    stepped = np.stack(stepped, axis=1)
    for row, want in enumerate(alone):
        np.testing.assert_allclose(stepped[row], want, rtol=0, atol=1e-9)


def test_the_oracle_runs_no_compiled_decode_kernel(
    compiled_kernels, monkeypatch, trained_tiny_model, calibration_sequences
):
    """``CausalLM.generate`` and ``SparseInferenceEngine.generate`` (dense,
    DIP, DIP-CA) call none of the compiled decode kernels, so every parity
    test compares them with numpy; DIP-CA's prefill masks run in ``ca_step``
    on both sides.  The same engines' ``ContinuousBatch`` steps call them."""
    calls = collections.Counter()
    load = native.CompiledKernel.load

    def counted(handle):
        function = load(handle)
        return lambda *args: calls.update([handle.symbol]) or function(*args)

    monkeypatch.setattr(native.CompiledKernel, "load", counted)
    decode_kernels = {"decode_attn", "decode_head", "decode_mlp", "decode_step"}
    prompt = calibration_sequences[0][:6]
    methods = {"dense": DenseBaseline, "dip": DynamicInputPruning, "dip-ca": CacheAwareDIP}
    trained_tiny_model.generate(prompt, 6, temperature=0.0)
    for make in methods.values():
        SparseInferenceEngine(trained_tiny_model, make()).generate(prompt, 6, temperature=0.0)
    assert not decode_kernels & set(calls)
    for name, make in methods.items():
        calls.clear()
        batch = ContinuousBatch.from_engine(SparseInferenceEngine(trained_tiny_model, make()), max_batch_size=1)
        serve_continuous_greedy(batch, [prompt], [6])
        served = {"decode_attn", "decode_head"} if name == "dense" else {"decode_step"}
        assert {symbol for symbol in calls if symbol in decode_kernels} == served, name
