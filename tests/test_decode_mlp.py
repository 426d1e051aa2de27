"""The compiled DIP/DIP-CA decode MLP (``repro.sparsity.decode_mlp``) against
the numpy path it replaces, its dispatch and its bindings."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, serve_continuous_greedy
from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.sparsity.base import keep_count
from repro.sparsity.cache_aware import CacheAwareDIP, cache_aware_scores
from repro.sparsity import decode_mlp as decode_mlp_module
from repro.sparsity.decode_mlp import DECODE_MLP, bound_layer, decode_mlp
from repro.sparsity.dip import DynamicInputPruning
from repro.training.lora import LoRAConfig, attach_mlp_adapters, fuse_adapters

DENSITIES = (0.25, 0.35, 0.5, 1.0)


def make_method(name, density, gamma=0.2, cache_fraction=0.5):
    if name == "dip":
        return DynamicInputPruning(density)
    return CacheAwareDIP(density, gamma=gamma, cache_fraction=cache_fraction)


def numpy_mlp(method, mlp, x, layer_index=0):
    """The numpy path the kernel replaces: what it must reproduce."""
    masks = method.compute_masks(mlp, layer_index, x)
    return method.sparse_forward(mlp, layer_index, x, masks), masks


def kernel_mlp(method, mlp, x, layer_index=0):
    out = decode_mlp(method, mlp, layer_index, x)
    assert out is not None, "the kernel declined a call it should serve"
    return out


def cache_state(method):
    """Every cache array, ``token_index`` and the hit statistics of a DIP-CA method."""
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


def kth_gap(scores, k):
    """Distance between the k-th and (k+1)-th largest score of one row."""
    if k <= 0 or k >= scores.size:
        return np.inf
    top = np.sort(scores)[::-1]
    return top[k - 1] - top[k]


def scorer(method, layer_index=0):
    """A function giving a row's scores for one group against the cache
    state as it is now, before the row is served."""
    resident = {}
    if isinstance(method, CacheAwareDIP) and method.gamma < 1.0:
        for group in ("input", "down"):
            cache = method._caches.get((layer_index, group))
            resident[group] = None if cache is None else cache.cached.copy()

    def scores(values, group):
        if group not in resident:
            return np.abs(values)
        cached = resident[group] if resident[group] is not None else np.zeros(values.size, dtype=bool)
        return cache_aware_scores(np.abs(values), cached, method.gamma)

    return scores


@st.composite
def mlp_cases(draw):
    d_model = draw(st.integers(min_value=2, max_value=24))
    d_ffn = draw(st.integers(min_value=2, max_value=40))  # rows shorter and longer than 8 lanes
    name = draw(st.sampled_from(["dip", "dip-ca"]))
    density = draw(st.sampled_from(DENSITIES))
    gamma = draw(st.sampled_from([0.2, 1.0]))
    fraction = draw(st.sampled_from([0.0, 0.3, 1.0]))
    # Calls in order: up to 3 rows a decode step (the kernel), 5 a prefill (numpy).
    widths = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=8))
    return d_model, d_ffn, name, density, gamma, fraction, widths, draw(st.integers(0, 2**32 - 1))


class TestKernelAgainstNumpy:
    @given(case=mlp_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_path(self, compiled_kernels, case):
        """Interleaved prefill (numpy) and decode (kernel) calls against a
        reference that serves every row alone on numpy: masks, outputs,
        caches, ``token_index`` and hit statistics agree, up to the first row
        whose k-th and (k+1)-th scores lie within 1e-9 (where rounding may
        keep either unit)."""
        d_model, d_ffn, name, density, gamma, fraction, widths, seed = case
        rng = np.random.default_rng(seed)
        mlp = SwiGLUMLP(GLUMLPConfig(d_model=d_model, d_ffn=d_ffn), seed=seed % 1000)
        served = make_method(name, density, gamma, fraction)
        reference = make_method(name, density, gamma, fraction)
        k_in = keep_count(reference.input_keep_fraction, d_model)
        k_down = keep_count(reference.neuron_keep_fraction, d_ffn)
        for width in widths:
            x = rng.normal(size=(width, d_model))
            expected, input_masks, down_masks = [], [], []
            for row in x[:, None, :]:
                scores = scorer(reference)
                out, masks = numpy_mlp(reference, mlp, row)
                glu = mlp.glu_activations_array(row, input_mask=masks.input_mask)
                if kth_gap(scores(row[0], "input"), k_in) <= 1e-9 or kth_gap(scores(glu[0], "down"), k_down) <= 1e-9:
                    return
                expected.append(out[0])
                input_masks.append(masks.input_mask[0])
                down_masks.append(masks.down_mask[0])
            if width <= 3:
                counts = {key: c.frequency.copy() for key, c in getattr(served, "_caches", {}).items()}
                got = kernel_mlp(served, mlp, x)
                if counts:  # the LFU counts grew by exactly the units the rows kept
                    for group, kept in (("input", input_masks), ("down", down_masks)):
                        grown = served._caches[(0, group)].frequency - counts[(0, group)]
                        assert np.array_equal(grown, np.sum(kept, axis=0))
            else:
                got, masks = numpy_mlp(served, mlp, x)
                assert np.array_equal(masks.input_mask, np.array(input_masks))
                assert np.array_equal(masks.down_mask, np.array(down_masks))
            np.testing.assert_allclose(got, np.array(expected), rtol=0, atol=1e-12)
            assert_same_state(cache_state(served), cache_state(reference))

    def test_row_is_the_same_alone_and_in_a_batch(self, compiled_kernels):
        """B rows in one call give, bit for bit, the outputs of B one-row
        calls in order, and leave DIP-CA's caches, counts and hits as those
        calls do, rows with exact zeros and tied magnitudes included: DIP,
        and DIP-CA at gamma 0.2 and 1.0 with no cache, part of the units and
        all of them cached, at densities up to 1.0, on rows shorter than a
        vector and rows of a thousand.  17 rows span three row blocks."""
        settings = [("dip", 0.2, 0.5)] + [("dip-ca", g, f) for g in (0.2, 1.0) for f in (0.0, 0.4, 1.0)]
        geometries = [(2, 3), (12, 40), (5, 1030), (1030, 6)]
        for (d_model, d_ffn), (name, gamma, fraction), density in itertools.product(
            geometries, settings, [0.25, 0.35, 0.5, 0.75, 1.0]
        ):
            rng = np.random.default_rng(int(density * 100) + d_model)
            mlp = SwiGLUMLP(GLUMLPConfig(d_model=d_model, d_ffn=d_ffn), seed=d_ffn)
            batched = make_method(name, density, gamma, fraction)
            kernel_mlp(batched, mlp, rng.normal(size=(3, d_model)))  # some cache state first
            for rows in (2, 3, 8, 17):
                x = rng.normal(size=(rows, d_model))
                x[0, : d_model // 2] = 0.0  # exact zeros
                x[-1, ::2] = np.where(x[-1, ::2] < 0, -0.5, 0.5)  # tied magnitudes
                alone = copy.deepcopy(batched)
                got = kernel_mlp(batched, mlp, x)
                want = np.concatenate([kernel_mlp(alone, mlp, x[i : i + 1]) for i in range(rows)])
                assert np.array_equal(got, want), (d_model, d_ffn, name, gamma, fraction, density, rows)
                assert_same_state(cache_state(batched), cache_state(alone))
            if name == "dip-ca" and fraction > 0:
                assert batched.stats.hits > 0, (d_model, d_ffn, gamma, fraction, density)


# ----------------------------------------------------------------- dispatch
@pytest.fixture
def mlp():
    return SwiGLUMLP(GLUMLPConfig(d_model=24, d_ffn=64), seed=0)


class TestDispatch:
    @pytest.mark.parametrize("name", ["dip", "dip-ca"])
    def test_serves_every_width(self, compiled_kernels, mlp, name):
        method = make_method(name, 0.5)
        for rows in range(1, 11):
            assert decode_mlp(method, mlp, 0, np.ones((rows, mlp.d_model))) is not None, rows

    def test_other_calls_take_the_numpy_path(self, compiled_kernels, mlp):
        x = np.ones((1, mlp.d_model))
        assert decode_mlp(CacheAwareDIP(0.5), mlp, 0, x.astype(np.float32)) is None
        relu = SwiGLUMLP(GLUMLPConfig(d_model=24, d_ffn=64, activation="relu"), seed=0)
        assert decode_mlp(DynamicInputPruning(0.5), relu, 0, x) is None

        class Ranked(DynamicInputPruning):  # a subclass may rank otherwise
            pass

        assert decode_mlp(Ranked(0.5), mlp, 0, x) is None
        from repro.sparsity.registry import create_method

        for name in ("dense", "cats", "glu", "up"):
            assert decode_mlp(create_method(name, target_density=0.5), mlp, 0, x) is None

    def test_arrays_the_kernel_cannot_use_take_the_numpy_path(self, compiled_kernels, mlp):
        x = np.random.default_rng(0).normal(size=(1, mlp.d_model))
        method = CacheAwareDIP(0.5)
        assert decode_mlp(method, mlp, 0, x) is not None
        mlp.up.data = np.asfortranarray(mlp.w_up)  # same values, not row-contiguous
        assert decode_mlp(method, mlp, 0, x) is None
        mlp.up.data = np.ascontiguousarray(mlp.w_up)
        cache = method._caches[(0, "down")]
        cache.frequency.flags.writeable = False
        assert decode_mlp(method, mlp, 0, x) is None
        cache.frequency.flags.writeable = True
        assert decode_mlp(method, mlp, 0, x) is not None
        wider = SwiGLUMLP(GLUMLPConfig(d_model=mlp.d_model + 1, d_ffn=mlp.d_ffn), seed=0)
        assert decode_mlp(method, wider, 0, np.ones((1, wider.d_model))) is None
        with pytest.raises(ValueError, match=rf"\({mlp.d_model},\)"):  # the numpy path refuses it
            numpy_mlp(method, wider, np.ones((1, wider.d_model)))

    @pytest.mark.parametrize("name", ["dip", "dip-ca"])
    def test_large_gates_and_zero_rows(self, compiled_kernels, mlp, name):
        """Gate values of several thousand (the negative ones push exp past
        its clamp) and an all-zero row: the output stays finite and matches
        numpy within 1e-12 of its largest magnitude."""
        rng = np.random.default_rng(6)
        rows = [rng.normal(size=(1, mlp.d_model)) * scale for scale in (500.0, 2000.0, 5000.0)]
        served, reference = make_method(name, 0.5), make_method(name, 0.5)
        largest_gate = 0.0
        for x in rows + [np.zeros((1, mlp.d_model))]:
            want, masks = numpy_mlp(reference, mlp, x)
            largest_gate = max(largest_gate, np.abs((x * masks.input_mask) @ mlp.w_gate).max())
            got = kernel_mlp(served, mlp, x)
            assert np.isfinite(got).all()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert largest_gate > 2000.0

    def test_failed_scratch_allocation_raises(self, monkeypatch, mlp):
        monkeypatch.setattr(DECODE_MLP, "load", lambda: lambda *args: -1)
        with pytest.raises(MemoryError):
            decode_mlp(DynamicInputPruning(0.5), mlp, 0, np.ones((1, mlp.d_model)))

    def test_engine_runs_decode_steps_in_the_kernel(self, compiled_kernels, tiny_model):
        """Prefill and recorded runs compute masks on numpy; the decode steps
        of the engine's ``ContinuousBatch`` do not."""
        prompt = np.arange(1, 9)
        for record in (False, True):
            engine = SparseInferenceEngine(tiny_model, CacheAwareDIP(0.5), record_masks=record)
            calls = []
            compute_masks = engine.method.compute_masks
            engine.method.compute_masks = lambda *args: calls.append(args[2].shape[0]) or compute_masks(*args)
            serve_continuous_greedy(ContinuousBatch.from_engine(engine, max_batch_size=1), [prompt], [4])
            n_layers = len(tiny_model.blocks)
            assert calls == [len(prompt)] * n_layers + ([1] * 3 * n_layers if record else [])


# ----------------------------------------------------------------- bindings
CONFIG = TransformerConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ffn=32, max_seq_len=24)


def decode(engine, n_steps=5):
    """Tokens and last logits of a fixed prompt's greedy decode steps, served
    through the engine's ``ContinuousBatch`` (the kernels)."""
    batch = ContinuousBatch.from_engine(engine, max_batch_size=1)
    tokens = serve_continuous_greedy(batch, [np.arange(1, 6)], [n_steps])[0]
    return tokens, engine.logits(tokens)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", ["dip", "dip-ca"])
def test_copy_of_a_decoded_method_serves_on_its_own_caches(compiled_kernels, mlp, clone, name):
    rng = np.random.default_rng(3)
    method = make_method(name, 0.5, cache_fraction=0.4)
    for _ in range(4):
        kernel_mlp(method, mlp, rng.normal(size=(1, mlp.d_model)))
    assert method._bound
    copied = clone(method)
    assert copied._bound == {}
    before = cache_state(method)
    x = rng.normal(size=(1, mlp.d_model))
    from_copy = kernel_mlp(copied, mlp, x)
    assert_same_state(cache_state(method), before)  # the copy wrote only its own caches
    assert np.array_equal(kernel_mlp(method, mlp, x), from_copy)
    assert_same_state(cache_state(method), cache_state(copied))


@pytest.mark.parametrize("name", ["dip", "dip-ca"])
def test_a_binding_is_checked_once_and_compared_by_identity(monkeypatch, mlp, name):
    """The checks run when a layer is bound; later calls compare what the
    binding was made from and bind again when an array or scalar changed."""
    method = make_method(name, 0.5)
    bound = bound_layer(method, mlp, 0)
    checks = []
    fits = decode_mlp_module._fits
    monkeypatch.setattr(decode_mlp_module, "_fits", lambda *args: checks.append(args) or fits(*args))
    assert bound_layer(method, mlp, 0) is bound and checks == []
    mlp.down.data = mlp.w_down.copy()
    rebound = bound_layer(method, mlp, 0)
    assert rebound is not bound and checks and rebound.sources[3] is mlp.w_down
    method.allocation = dataclasses.replace(method.allocation, down_density=0.25)
    kept = keep_count(method.input_keep_fraction, mlp.d_model) + keep_count(0.25, mlp.d_ffn)
    assert bound_layer(method, mlp, 0).kept == kept != rebound.kept


@pytest.mark.parametrize("name", ["dip", "dip-ca"])
def test_replaced_arrays_are_bound_again(compiled_kernels, name):
    model, other = CausalLM(CONFIG, seed=1), CausalLM(CONFIG, seed=2)
    engine = SparseInferenceEngine(model, make_method(name, 0.5))
    decode(engine)  # binds every layer
    model.load_state_dict(other.state_dict())  # every parameter gets a new array
    engine.reset()  # keeps the cache arrays, so their bindings stay
    fresh = SparseInferenceEngine(other, make_method(name, 0.5))
    for got, want in zip(decode(engine), decode(fresh)):
        np.testing.assert_array_equal(got, want)

    adapters = attach_mlp_adapters(model, LoRAConfig(rank=2, seed=4))
    rng = np.random.default_rng(5)
    for layer in adapters:
        for adapter in (layer.up, layer.gate, layer.down):
            adapter.B.data = rng.normal(0, 0.2, size=adapter.B.data.shape)
    fuse_adapters(model, adapters)  # replaces the MLP weights
    fused = copy.deepcopy(model)
    engine.reset()
    fresh = SparseInferenceEngine(fused, make_method(name, 0.5))
    for got, want in zip(decode(engine), decode(fresh)):
        np.testing.assert_array_equal(got, want)
