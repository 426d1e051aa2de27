"""Prefix caching: the block trie, seeded KV slots, and continuous-batch reuse.

The central contract: with the prefix cache attached, greedy serving output
is token-for-token identical to the cache-off path — the cache only removes
recomputation of shared prompt heads, never changes results.  Alongside:
LRU eviction under the byte budget, ref-count safety while matches are in
use, and the prefill-token accounting the benchmarks and ``/stats`` gate on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.inference import (
    ContinuousBatch,
    ContinuousDecoder,
    DecodeRequest,
    SparseInferenceEngine,
    serve_continuous_greedy,
)
from repro.nn.attention import KVCache
from repro.nn.prefix_cache import PrefixCache
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning


def _layer_kv(n_layers: int, length: int, n_kv_heads: int = 2, head_dim: int = 4, fill: float = 1.0):
    keys = [np.full((n_kv_heads, length, head_dim), fill + layer) for layer in range(n_layers)]
    values = [np.full((n_kv_heads, length, head_dim), -fill - layer) for layer in range(n_layers)]
    return keys, values


class TestPrefixCacheTrie:
    def test_longest_match_over_whole_blocks(self):
        cache = PrefixCache(max_bytes=1 << 20, block_size=4)
        tokens = list(range(10))
        keys, values = _layer_kv(2, 10)
        assert cache.insert(tokens, keys, values) == 2  # blocks [0:4], [4:8]; tail 8:10 unpublished
        match = cache.lookup(tokens)
        assert match is not None and match.length == 8
        # A prompt sharing only the first block matches 4 tokens.
        match = cache.lookup([0, 1, 2, 3, 99, 98, 97, 96])
        assert match is not None and match.length == 4
        assert cache.lookup([9, 9, 9, 9]) is None
        # max_length caps the match (decode needs at least one forwarded token).
        match = cache.lookup(tokens, max_length=7)
        assert match is not None and match.length == 4
        assert cache.lookup(tokens, max_length=3) is None

    def test_assemble_concatenates_blocks_per_layer(self):
        cache = PrefixCache(max_bytes=1 << 20, block_size=2)
        keys, values = _layer_kv(2, 6)
        keys[0][:, :, :] = np.arange(6)[None, :, None]  # layer 0 keys encode positions
        cache.insert(list(range(6)), keys, values)
        match = cache.lookup(list(range(6)), max_length=5)
        assert match.length == 4
        assembled = match.assemble()
        assert len(assembled) == 2
        k0, v0 = assembled[0]
        assert k0.shape == (2, 4, 4)
        assert np.array_equal(k0[0, :, 0], [0, 1, 2, 3])
        assert np.array_equal(v0, values[0][:, :4])

    def test_blocks_are_immutable_copies(self):
        cache = PrefixCache(max_bytes=1 << 20, block_size=2)
        keys, values = _layer_kv(1, 2)
        cache.insert([1, 2], keys, values)
        keys[0][:] = 123.0  # mutating the source must not affect the cache
        match = cache.lookup([1, 2, 3], max_length=2)
        k, _ = match.assemble()[0]
        assert (k == 1.0).all()
        with pytest.raises(ValueError):
            match.blocks[0].keys[0][:] = 0.0  # read-only

    def test_reinsert_is_idempotent(self):
        cache = PrefixCache(max_bytes=1 << 20, block_size=2)
        keys, values = _layer_kv(1, 4)
        assert cache.insert([1, 2, 3, 4], keys, values) == 2
        assert cache.insert([1, 2, 3, 4], keys, values) == 0
        assert cache.stats()["blocks"] == 2

    def test_lru_eviction_under_byte_budget(self):
        keys, values = _layer_kv(1, 2)
        block_bytes = sum(k.nbytes for k in keys) + sum(v.nbytes for v in values)
        cache = PrefixCache(max_bytes=2 * block_bytes, block_size=2)
        cache.insert([1, 1], keys, values)
        cache.insert([2, 2], keys, values)
        cache.lookup([1, 1, 0])  # touch chain 1 so chain 2 is the LRU victim
        cache.insert([3, 3], keys, values)
        assert cache.lookup([1, 1, 0]) is not None
        assert cache.lookup([2, 2, 0]) is None  # evicted
        assert cache.lookup([3, 3, 0]) is not None
        stats = cache.stats()
        assert stats["evicted_blocks"] == 1
        assert stats["bytes"] <= stats["max_bytes"]

    def test_eviction_takes_leaves_before_interior_blocks(self):
        keys, values = _layer_kv(1, 6)
        block_bytes = sum(k[:, :2].nbytes for k in keys) + sum(v[:, :2].nbytes for v in values)
        cache = PrefixCache(max_bytes=3 * block_bytes, block_size=2)
        cache.insert([1, 2, 3, 4, 5, 6], keys, values)  # one chain of three blocks
        k2, v2 = _layer_kv(1, 2)
        cache.insert([9, 9], k2, v2)  # over budget: the chain's *leaf* must go
        match = cache.lookup([1, 2, 3, 4, 5, 6])
        assert match is not None and match.length == 4  # deepest block evicted first

    def test_refcount_blocks_eviction_for_shared_prefix(self):
        """Two in-flight requests sharing a head keep its blocks alive."""
        keys, values = _layer_kv(1, 2)
        block_bytes = sum(k.nbytes for k in keys) + sum(v.nbytes for v in values)
        cache = PrefixCache(max_bytes=block_bytes, block_size=2)
        cache.insert([1, 1], keys, values)
        first = cache.lookup([1, 1, 5])
        second = cache.lookup([1, 1, 7])
        cache.acquire(first)
        cache.acquire(second)
        assert first.blocks[0] is second.blocks[0]  # genuinely shared
        cache.insert([2, 2], keys, values)  # pressure: budget fits one block
        assert cache.lookup([1, 1, 5]) is not None  # pinned, not evicted
        cache.release(first)
        assert cache.lookup([1, 1, 5]) is not None  # still pinned by `second`
        cache.release(second)
        cache.insert([3, 3], keys, values)  # now the shared head is evictable
        assert cache.lookup([1, 1, 5]) is None
        with pytest.raises(ValueError, match="without a matching acquire"):
            cache.release(second)

    def test_validation_and_stats(self):
        with pytest.raises(ValueError):
            PrefixCache(max_bytes=1024, block_size=0)
        with pytest.raises(ValueError):
            PrefixCache(max_bytes=-1)
        cache = PrefixCache(max_bytes=1 << 20, block_size=2)
        stats = cache.stats()
        assert stats["hit_rate"] == 0.0 and stats["blocks"] == 0
        keys, values = _layer_kv(1, 2)
        cache.insert([1, 2], keys, values)
        cache.lookup([1, 2, 3])
        cache.lookup([7, 8, 9])
        stats = cache.stats()
        assert stats["lookups"] == 2 and stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5 and stats["hit_tokens"] == 2
        cache.clear()
        assert cache.stats()["blocks"] == 0 and cache.bytes_used == 0


class TestSeededKVSlots:
    def test_insert_slot_with_prefix_concatenates(self):
        cache = KVCache(n_kv_heads=2, head_dim=4, max_seq_len=8, batch_size=2)
        prefix_k = np.full((2, 3, 4), 1.0)
        suffix_k = np.full((2, 2, 4), 2.0)
        cache.insert_slot(1, suffix_k, suffix_k * -1, prefix=(prefix_k, prefix_k * -1))
        assert cache.lengths.tolist() == [0, 5]
        assert (cache.keys[1, :, :3] == 1.0).all()
        assert (cache.keys[1, :, 3:5] == 2.0).all()
        assert (cache.keys[1, :, 5:] == 0.0).all()
        assert (cache.values[1, :, :3] == -1.0).all()

    def test_insert_slot_prefix_overflow_raises(self):
        cache = KVCache(2, 4, max_seq_len=4, batch_size=1)
        prefix_k = np.ones((2, 3, 4))
        suffix_k = np.ones((2, 2, 4))
        with pytest.raises(RuntimeError, match="overflow"):
            cache.insert_slot(0, suffix_k, suffix_k, prefix=(prefix_k, prefix_k))


@pytest.fixture()
def shared_head_workload(rng):
    head = rng.integers(0, 64, size=24)
    prompts = [np.concatenate([head, rng.integers(0, 64, size=int(s))]) for s in rng.integers(2, 7, size=8)]
    budgets = [int(b) for b in rng.integers(2, 6, size=8)]
    return prompts, budgets


class TestContinuousBatchPrefixCaching:
    def test_greedy_parity_cache_on_vs_off(self, trained_tiny_model, shared_head_workload):
        prompts, budgets = shared_head_workload
        engine = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.5))
        off = ContinuousBatch.from_engine(engine, max_batch_size=3, max_seq_len=64)
        reference = serve_continuous_greedy(off, prompts, budgets)
        cache = PrefixCache(max_bytes=1 << 22, block_size=8)
        on = ContinuousBatch.from_engine(
            engine, max_batch_size=3, max_seq_len=64, prefix_cache=cache
        )
        served = serve_continuous_greedy(on, prompts, budgets)
        for expected, got in zip(reference, served):
            assert np.array_equal(expected, got)
        # The shared 24-token head (3 blocks of 8) was reused, not recomputed.
        assert on.prefill_tokens_total == sum(len(p) for p in prompts)
        assert on.prefill_tokens_forwarded < on.prefill_tokens_total
        assert cache.stats()["hits"] > 0
        # The cache-off batch never counts savings.
        assert off.prefill_tokens_forwarded == off.prefill_tokens_total

    def test_fully_cached_prompt_still_forwards_last_token(self, trained_tiny_model):
        """A prompt that is entirely cached must forward ≥ 1 token for logits."""
        engine = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.5))
        cache = PrefixCache(max_bytes=1 << 22, block_size=4)
        batch = ContinuousBatch.from_engine(
            engine, max_batch_size=2, max_seq_len=64, prefix_cache=cache
        )
        prompt = np.arange(1, 10)  # 9 tokens: blocks [0:4], [4:8] publishable
        [first] = serve_continuous_greedy(batch, [prompt], [3])
        [again] = serve_continuous_greedy(batch, [prompt], [3])
        assert np.array_equal(first, again)
        assert np.array_equal(first, engine.generate(prompt, 3, temperature=0.0))
        # Second admission matched both cached blocks (8 of 9 tokens; the
        # len-1 cap keeps the last token out) and forwarded only token 9.
        assert batch.prefill_tokens_forwarded == len(prompt) + 1

    def test_cache_prefix_flag_opts_out_per_prompt(self, trained_tiny_model):
        engine = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.5))
        cache = PrefixCache(max_bytes=1 << 22, block_size=4)
        batch = ContinuousBatch.from_engine(
            engine, max_batch_size=2, max_seq_len=64, prefix_cache=cache
        )
        prompt = np.arange(1, 9)
        batch.admit([prompt], cache_prefix=[False])
        assert cache.stats()["lookups"] == 0 and cache.stats()["blocks"] == 0
        batch.evict(0)
        slots, _ = batch.admit([prompt], cache_prefix=[True])
        assert cache.stats()["blocks"] > 0
        assert batch.prefill_tokens_forwarded == 2 * len(prompt)

    def test_cache_state_method_refuses_prefix_cache(self, trained_tiny_model):
        engine = SparseInferenceEngine(trained_tiny_model, CacheAwareDIP(target_density=0.5))
        with pytest.raises(ValueError, match="prefix caching"):
            ContinuousBatch.from_engine(
                engine, max_batch_size=1, max_seq_len=64, prefix_cache=PrefixCache(1 << 20)
            )

    def test_admit_metadata_validation(self, trained_tiny_model):
        batch = ContinuousBatch(trained_tiny_model, max_batch_size=2, max_seq_len=32)
        with pytest.raises(ValueError, match="cache_prefix"):
            batch.admit([np.arange(1, 4)], cache_prefix=[True, False])
        with pytest.raises(ValueError, match="admission policy"):
            ContinuousDecoder(batch, admission="lifo")
        decoder = ContinuousDecoder(batch)
        with pytest.raises(ValueError, match="at most 30 new tokens fit"):
            decoder.submit(DecodeRequest("a", np.arange(1, 4), max_new_tokens=31))
        with pytest.raises(ValueError, match="positive"):
            decoder.submit(DecodeRequest("a", np.arange(1, 4), max_new_tokens=0))
        assert decoder.idle  # a rejected request never queues


class TestSlotLifecycleMetadata:
    """Request lifecycle on the decode driver: cancellation and deadlines."""

    def test_cancel_by_request_id_frees_slot(self, trained_tiny_model):
        batch = ContinuousBatch(trained_tiny_model, max_batch_size=2, max_seq_len=32)
        decoder = ContinuousDecoder(batch)
        for key, prompt in (("a", np.arange(1, 4)), ("b", np.arange(1, 6))):
            decoder.submit(DecodeRequest(key, prompt, max_new_tokens=4))
        a, b = decoder.admit()
        assert batch.occupancy == 2
        assert decoder.find("a") is a
        decoder.finish(a, "cancelled")
        assert a.finish_reason == "cancelled"
        assert batch.occupancy == 1 and a.slot in batch.free_slots()
        assert decoder.find("a") is None  # already gone: not an error
        assert decoder.find("unknown") is None
        assert decoder.step() == [b]  # the survivor keeps decoding

    def test_expired_lists_slots_past_deadline(self, trained_tiny_model):
        batch = ContinuousBatch(trained_tiny_model, max_batch_size=2, max_seq_len=32)
        decoder = ContinuousDecoder(batch)
        a, b, c, d = [
            DecodeRequest(key, np.arange(1, 4 + i), max_new_tokens=4, deadline=deadline)
            for i, (key, deadline) in enumerate((("a", 10.0), ("b", 20.0), ("c", None), ("d", 15.0)))
        ]
        for request in (a, b, c, d):
            decoder.submit(request)
        assert decoder.admit() == [a, b]  # c and d stay queued
        assert decoder.overdue(5.0) == []
        # Queued requests come first, then active ones by slot.
        assert decoder.overdue(15.0) == [d, a]
        assert decoder.overdue(25.0) == [d, a, b]
        decoder.finish(a, "timeout")
        decoder.finish(d, "timeout")
        assert decoder.overdue(25.0) == [b]
        assert a.slot in batch.free_slots() and decoder.waiting == [c]
