"""The serving subsystem: ragged attention, continuous batching, pool, server.

The central contract pinned here is determinism: a stream of ragged-length
prompts served through the continuous-batching scheduler produces
token-for-token identical outputs (greedy decoding) to one-at-a-time
``generate`` calls, regardless of arrival order, admission policy, or batch
composition.  Slot-wise KV-cache bookkeeping, the shared-calibration session
pool, and the HTTP front-end are covered alongside.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, serve_continuous_greedy
from repro.nn.attention import KVCache
from repro.nn.transformer import MASKED_BIAS, left_pad_ragged
from repro.pipeline.session import SparseSession
from repro.serving import (
    BackgroundServer,
    ContinuousBatchingScheduler,
    GenerationRequest,
    GenerationResult,
    RequestError,
    SchedulerConfig,
    SessionPool,
    run_experiment_payload,
)
from repro.sparsity.base import SparsityMethod
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning

from timing_utils import scaled, wait_until


@pytest.fixture()
def ragged_prompts(rng):
    return [rng.integers(0, 64, size=int(n)) for n in rng.integers(3, 13, size=10)]


@pytest.fixture()
def dip_engine(trained_tiny_model):
    return SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.5))


@pytest.fixture()
def tiny_session(trained_tiny_model, calibration_sequences, eval_sequences):
    return SparseSession(
        trained_tiny_model,
        "dip",
        calibration_sequences=calibration_sequences,
        eval_sequences=eval_sequences,
        model_name="tiny",
    )


# ---------------------------------------------------------------------------
# Request / result payloads
# ---------------------------------------------------------------------------


class TestPayloads:
    def test_request_json_round_trip(self):
        request = GenerationRequest(
            prompt=(3, 1, 4), max_new_tokens=5, temperature=0.7, request_id="r1",
            arrival_time=12.5, seed=9,
        )
        assert GenerationRequest.from_json(request.to_json()) == request

    def test_request_coerces_and_validates(self):
        request = GenerationRequest(prompt=[np.int64(3), 2.0], max_new_tokens=np.int64(4))
        assert request.prompt == (3, 2)
        assert isinstance(request.max_new_tokens, int)
        with pytest.raises(RequestError, match="non-empty"):
            GenerationRequest(prompt=())
        with pytest.raises(RequestError, match="max_new_tokens"):
            GenerationRequest(prompt=(1,), max_new_tokens=0)
        with pytest.raises(RequestError, match="temperature"):
            GenerationRequest(prompt=(1,), temperature=-0.1)
        with pytest.raises(RequestError, match="unknown key"):
            GenerationRequest.from_dict({"prompt": [1], "bogus": 2})
        with pytest.raises(RequestError, match="missing required key.*prompt"):
            GenerationRequest.from_dict({"max_new_tokens": 4})
        # malformed payloads surface as RequestError (HTTP 400), never a raw
        # TypeError/ValueError (HTTP 500)
        with pytest.raises(RequestError, match="sequence of integer token ids"):
            GenerationRequest(prompt=5)
        with pytest.raises(RequestError, match="must be numeric"):
            GenerationRequest(prompt=(1, 2), max_new_tokens="many")

    def test_lifecycle_fields_round_trip_and_validate(self):
        request = GenerationRequest(prompt=(1, 2), timeout_s=2.5, cache_prefix=False)
        assert request.timeout_s == 2.5 and request.cache_prefix is False
        assert GenerationRequest.from_json(request.to_json()) == request
        assert GenerationRequest(prompt=(1,)).timeout_s is None  # default: no deadline
        assert GenerationRequest(prompt=(1,)).cache_prefix is True
        with pytest.raises(RequestError, match="timeout_s must be positive"):
            GenerationRequest(prompt=(1,), timeout_s=0)
        with pytest.raises(RequestError, match="timeout_s must be positive"):
            GenerationRequest(prompt=(1,), timeout_s=-1.0)
        with pytest.raises(RequestError, match="timeout_s must be numeric"):
            GenerationRequest(prompt=(1,), timeout_s="soon")

    def test_result_round_trip_and_full_sequence(self):
        result = GenerationResult(request_id="r", prompt=(1, 2), tokens=(7, 8, 9))
        assert GenerationResult.from_json(result.to_json()) == result
        assert np.array_equal(result.full_sequence(), [1, 2, 7, 8, 9])
        assert result.n_generated == 3

    def test_experiment_payload_routes_through_run_experiment(self, tiny_session):
        payload = {
            "name": "served",
            "model": {"name": "tiny"},
            "method": {"name": "dip", "target_density": 0.5},
            "eval": {"max_eval_sequences": 2, "primary_task": None},
            "hardware": None,
        }
        out = run_experiment_payload(payload, session=tiny_session)
        assert out["spec"]["name"] == "served"
        assert len(out["rows"]) == 1 and out["rows"][0]["perplexity"] > 0
        with pytest.raises(RequestError, match="not valid JSON"):
            run_experiment_payload("{nope", session=tiny_session)
        # A spec naming a different model than the serving session is refused
        # rather than silently evaluated on the wrong model.
        with pytest.raises(RequestError, match="does not match the serving session"):
            run_experiment_payload(dict(payload, model={"name": "mistral-7b"}), session=tiny_session)


# ---------------------------------------------------------------------------
# Ragged left-padding + slot-wise KV cache (the nn-layer substrate)
# ---------------------------------------------------------------------------


class TestLeftPadRagged:
    def test_layout_positions_and_mask(self):
        padded, positions, bias, lengths = left_pad_ragged([[5, 6, 7], [9]], pad_id=2)
        assert np.array_equal(padded, [[5, 6, 7], [2, 2, 9]])
        assert np.array_equal(positions, [[0, 1, 2], [0, 0, 0]])
        assert np.array_equal(bias, [[0.0, 0.0, 0.0], [MASKED_BIAS, MASKED_BIAS, 0.0]])
        assert np.array_equal(lengths, [3, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            left_pad_ragged([])
        with pytest.raises(ValueError):
            left_pad_ragged([[1], []])

    def test_ragged_prefill_matches_per_sequence_forward(self, trained_tiny_model, ragged_prompts):
        """Left-padded batched logits match per-sequence logits.

        Logits agree to BLAS summation-order noise (same convention as the
        batched-vs-stacked forward tests); the next-token *argmax* — what
        greedy decoding consumes — is pinned exactly.
        """
        padded, positions, bias, lengths = left_pad_ragged(ragged_prompts)
        batched = trained_tiny_model.forward_array(
            padded, attention_mask=bias, position_ids=positions, last_only=True
        )
        for i, prompt in enumerate(ragged_prompts):
            alone = trained_tiny_model.forward_array(prompt)
            assert np.allclose(batched[i, -1], alone[-1], atol=1e-10)
            assert np.argmax(batched[i, -1]) == np.argmax(alone[-1])


class TestKVCacheSlots:
    def test_insert_evict_lengths(self):
        cache = KVCache(n_kv_heads=2, head_dim=4, max_seq_len=8, batch_size=3)
        keys = np.ones((2, 5, 4))
        cache.insert_slot(1, keys, keys * 2)
        assert cache.lengths.tolist() == [0, 5, 0]
        assert cache.length == 5
        assert np.array_equal(cache.values[1, :, :5], keys * 2)
        assert (cache.keys[1, :, 5:] == 0).all()
        cache.evict_slot(1)
        assert cache.lengths.tolist() == [0, 0, 0] and cache.length == 0

    def test_insert_overflow_raises(self):
        cache = KVCache(2, 4, max_seq_len=3, batch_size=1)
        with pytest.raises(RuntimeError, match="overflow"):
            cache.insert_slot(0, np.ones((2, 4, 4)), np.ones((2, 4, 4)))

    def test_slot_view_appends_at_per_slot_positions(self):
        cache = KVCache(n_kv_heads=1, head_dim=2, max_seq_len=6, batch_size=4)
        cache.insert_slot(0, np.full((1, 3, 2), 1.0), np.full((1, 3, 2), 1.0))
        cache.insert_slot(2, np.full((1, 1, 2), 2.0), np.full((1, 1, 2), 2.0))
        view = cache.slot_view([0, 2])
        assert view.length == 3
        new_k = np.stack([np.full((1, 1, 2), 10.0), np.full((1, 1, 2), 20.0)])
        k_all, v_all = view.append(new_k, new_k.copy())
        assert cache.lengths.tolist() == [4, 0, 2, 0]
        assert k_all.shape == (2, 1, 4, 2)
        assert np.array_equal(cache.keys[0, :, 3], [[10.0, 10.0]])
        assert np.array_equal(cache.keys[2, :, 1], [[20.0, 20.0]])
        # the shorter slot's tail in the gathered view is dead (zeros)
        assert (k_all[1, :, 2:] == 0).all()

    def test_slot_view_validation(self):
        cache = KVCache(1, 2, 4, batch_size=2)
        with pytest.raises(ValueError):
            cache.slot_view([])
        with pytest.raises(ValueError):
            cache.slot_view([2])
        view = cache.slot_view([0])
        with pytest.raises(ValueError, match="one token"):
            view.append(np.ones((1, 2, 2)), np.ones((1, 2, 2)))
        with pytest.raises(ValueError, match="one token"):
            view.append(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="expected K/V for 1 slots"):
            view.append(np.ones((2, 1, 1, 2)), np.ones((2, 1, 1, 2)))
        assert cache.lengths.tolist() == [0, 0]
        for _ in range(4):
            view.append(np.ones((1, 1, 1, 2)), np.ones((1, 1, 1, 2)))
        assert cache.lengths.tolist() == [4, 0]
        with pytest.raises(RuntimeError, match="overflow"):
            view.append(np.ones((1, 1, 1, 2)), np.ones((1, 1, 1, 2)))

    def test_lockstep_append_keeps_lengths_in_sync(self):
        cache = KVCache(2, 4, 8, batch_size=2)
        cache.append(np.ones((2, 2, 3, 4)), np.ones((2, 2, 3, 4)))
        assert cache.length == 3 and cache.lengths.tolist() == [3, 3]
        cache.reset()
        assert cache.length == 0 and cache.lengths.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# Continuous batching: slot evict/admit + scheduler parity
# ---------------------------------------------------------------------------


class TestContinuousBatch:
    def test_admit_step_evict_cycle(self, dip_engine, ragged_prompts):
        batch = ContinuousBatch.from_engine(dip_engine, max_batch_size=3, max_seq_len=48)
        slots, logits = batch.admit(ragged_prompts[:2])
        assert slots == [0, 1] and logits.shape == (2, 64)
        assert batch.occupancy == 2 and batch.free_slots() == [2]
        batch.evict(slots[0])
        assert batch.free_slots() == [0, 2]
        # freed slot is reused by the next admission
        new_slots, _ = batch.admit([ragged_prompts[2], ragged_prompts[3]])
        assert new_slots == [0, 2]
        assert batch.occupancy == 3

    def test_admit_more_than_free_raises(self, dip_engine, ragged_prompts):
        batch = ContinuousBatch.from_engine(dip_engine, max_batch_size=2, max_seq_len=48)
        with pytest.raises(ValueError, match="free slots"):
            batch.admit(ragged_prompts[:3])

    def test_admit_overlong_prompt_raises(self, dip_engine):
        batch = ContinuousBatch.from_engine(dip_engine, max_batch_size=2, max_seq_len=8)
        with pytest.raises(ValueError, match="decode room"):
            batch.admit([np.arange(8)])

    def test_step_overflow_raises(self, dip_engine):
        batch = ContinuousBatch.from_engine(dip_engine, max_batch_size=1, max_seq_len=6)
        slots, logits = batch.admit([np.arange(5)])
        logits = batch.step(slots, [int(np.argmax(logits[0]))])
        with pytest.raises(RuntimeError, match="overflow"):
            batch.step(slots, [int(np.argmax(logits[0]))])

    @pytest.mark.parametrize("admission", ["fcfs", "shortest"])
    def test_serve_continuous_matches_sequential(self, dip_engine, ragged_prompts, rng, admission):
        budgets = [int(b) for b in rng.integers(1, 8, size=len(ragged_prompts))]
        sequential = [
            dip_engine.generate(p, b, temperature=0.0) for p, b in zip(ragged_prompts, budgets)
        ]
        batch = ContinuousBatch.from_engine(dip_engine, max_batch_size=4, max_seq_len=64)
        served = serve_continuous_greedy(batch, ragged_prompts, budgets, admission=admission)
        for expected, got in zip(sequential, served):
            assert np.array_equal(expected, got)

    def test_dense_override_none_serves_dense_model(self, trained_tiny_model, ragged_prompts):
        batch = ContinuousBatch(trained_tiny_model, max_batch_size=3, max_seq_len=64)
        served = serve_continuous_greedy(batch, ragged_prompts[:4], [5] * 4)
        for prompt, got in zip(ragged_prompts[:4], served):
            assert np.array_equal(trained_tiny_model.generate(prompt, 5, temperature=0.0), got)

    def test_cache_state_method_rejected_above_width_one(self, trained_tiny_model):
        """Batched continuous decode would change DIP-CA's masks: refuse it."""
        engine = SparseInferenceEngine(trained_tiny_model, CacheAwareDIP(target_density=0.5))
        with pytest.raises(ValueError, match="requires cache state"):
            ContinuousBatch.from_engine(engine, max_batch_size=4, max_seq_len=64)
        # width 1 decodes tokens in sequential order, which is well-defined
        batch = ContinuousBatch.from_engine(engine, max_batch_size=1, max_seq_len=64)
        assert batch.max_batch_size == 1

    def test_flat_token_list_is_one_prompt(self, trained_tiny_model):
        """Regression: a flat list must mean one prompt, not N 1-token prompts."""
        engine = SparseInferenceEngine(trained_tiny_model, DynamicInputPruning(0.5))
        out = engine.generate_batch([1, 2, 3], max_new_tokens=4, temperature=0.0)
        assert out.shape == (1, 7)
        assert np.array_equal(out[0], engine.generate([1, 2, 3], max_new_tokens=4, temperature=0.0))
        model_out = trained_tiny_model.generate_batch([1, 2, 3], max_new_tokens=4, temperature=0.0)
        assert model_out.shape == (1, 7)
        assert np.array_equal(
            model_out[0], trained_tiny_model.generate([1, 2, 3], max_new_tokens=4, temperature=0.0)
        )


class TestScheduler:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_stream_of_ragged_prompts_matches_generate(self, tiny_session, ragged_prompts, rng):
        """The headline parity: scheduler output == one-at-a-time generate."""
        budgets = [int(b) for b in rng.integers(1, 7, size=len(ragged_prompts))]

        async def serve():
            config = SchedulerConfig(max_batch_size=4, max_seq_len=64)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                return await asyncio.gather(*[
                    sched.submit(GenerationRequest(prompt=tuple(int(t) for t in p), max_new_tokens=b))
                    for p, b in zip(ragged_prompts, budgets)
                ]), sched.stats()

        results, stats = self._run(serve())
        tiny_session.calibrate()
        engine = tiny_session.engine
        for prompt, budget, result in zip(ragged_prompts, budgets, results):
            assert np.array_equal(result.full_sequence(), engine.generate(prompt, budget, temperature=0.0))
            assert result.n_generated == budget
        assert stats["requests_completed"] == len(ragged_prompts)
        assert stats["tokens_generated"] == sum(budgets)
        assert stats["tokens_per_second"] > 0

    def test_streaming_yields_tokens_incrementally(self, tiny_session):
        async def serve():
            async with ContinuousBatchingScheduler(tiny_session.share_calibration()) as sched:
                stream = sched.stream(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))
                tokens = [token async for token in stream]
                return tokens, stream.request_id

        tokens, request_id = self._run(serve())
        assert len(tokens) == 4 and all(isinstance(t, int) for t in tokens)
        assert request_id.startswith("req-")  # the assigned id is visible to streamers

    def test_request_ids_and_queue_limit(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=1, max_queue=2, max_seq_len=48)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                with pytest.raises(RequestError, match="decode room"):
                    await sched.submit(GenerationRequest(prompt=tuple(range(48)), max_new_tokens=1))
                result = await sched.submit(GenerationRequest(prompt=(1, 2), max_new_tokens=1))
                return result

        result = self._run(serve())
        assert result.request_id.startswith("req-")
        assert result.decode_seconds >= 0.0

    def test_over_budget_request_rejected_up_front(self, tiny_session):
        """prompt + max_new_tokens beyond max_seq_len must never reach decode."""

        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=16)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                with pytest.raises(RequestError, match="at most 7 new tokens"):
                    await sched.submit(GenerationRequest(prompt=tuple(range(1, 11)), max_new_tokens=10))
                # the boundary case fits exactly: L + max_new - 1 == max_seq_len
                result = await sched.submit(GenerationRequest(prompt=tuple(range(1, 11)), max_new_tokens=7))
                return result

        assert self._run(serve()).n_generated == 7

    def test_decode_failure_fails_batch_not_scheduler(self, tiny_session):
        """A raising decode step fails its requests; the loop keeps serving."""

        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=48)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                original_step = sched.batch.step
                calls = {"n": 0}

                def broken_step(slots, tokens):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("injected decode fault")
                    return original_step(slots, tokens)

                sched.batch.step = broken_step
                with pytest.raises(RuntimeError, match="injected decode fault"):
                    await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))
                # the scheduler survives and serves the next request normally
                result = await sched.submit(GenerationRequest(prompt=(4, 5, 6), max_new_tokens=3))
                return result, sched.stats()

        result, stats = self._run(serve())
        assert result.n_generated == 3
        assert stats["requests_failed"] == 1
        assert stats["requests_completed"] == 1
        assert stats["active_requests"] == 0 and stats["batch_occupancy"] == 0.0

    def test_cache_state_method_degrades_to_sequential(self, trained_tiny_model, calibration_sequences,
                                                       eval_sequences, ragged_prompts):
        session = SparseSession(
            trained_tiny_model,
            CacheAwareDIP(target_density=0.5),
            calibration_sequences=calibration_sequences,
            eval_sequences=eval_sequences,
        )

        async def serve():
            config = SchedulerConfig(max_batch_size=4, max_seq_len=64)
            async with ContinuousBatchingScheduler(session.share_calibration(), config) as sched:
                assert sched.batch.max_batch_size == 1  # degraded batch width
                return await asyncio.gather(*[
                    sched.submit(GenerationRequest(prompt=tuple(int(t) for t in p), max_new_tokens=3))
                    for p in ragged_prompts[:3]
                ])

        results = self._run(serve())
        engine = SparseInferenceEngine(trained_tiny_model, CacheAwareDIP(target_density=0.5))
        for prompt, result in zip(ragged_prompts[:3], results):
            engine.reset()
            assert np.array_equal(result.full_sequence(), engine.generate(prompt, 3, temperature=0.0))


# ---------------------------------------------------------------------------
# SessionPool — shared calibration
# ---------------------------------------------------------------------------


class _CountingCalibration(SparsityMethod):
    """A calibration-requiring method that counts calibrate() invocations."""

    name = "counting"
    requires_calibration = True

    def __init__(self, target_density: float = 0.5):
        super().__init__(target_density)
        self.calibrations = 0

    def calibrate(self, model, calibration_sequences) -> None:
        self.calibrations += 1

    def compute_masks(self, mlp, layer_index, x):
        from repro.sparsity.base import MLPMasks

        return MLPMasks(down_mask=np.ones((x.shape[0], mlp.d_ffn), dtype=bool))


class TestSessionPool:
    def test_calibration_runs_once_and_is_shared(self, trained_tiny_model, calibration_sequences,
                                                 eval_sequences):
        method = _CountingCalibration()
        session = SparseSession(
            trained_tiny_model, method,
            calibration_sequences=calibration_sequences, eval_sequences=eval_sequences,
        )
        pool = SessionPool(session, size=3)
        assert method.calibrations == 1
        for worker in pool.workers:
            worker.perplexity(max_sequences=2)  # would re-calibrate if not shared
        assert method.calibrations == 1
        assert all(worker.method.calibrations == 1 for worker in pool.workers)
        assert all(worker.method is not method for worker in pool.workers)

    def test_worker_results_match_freshly_calibrated_session(self, tiny_session):
        pool = SessionPool(tiny_session, size=2)
        expected = tiny_session.perplexity(max_sequences=3)
        with pool.borrow() as worker:
            assert worker.perplexity(max_sequences=3) == pytest.approx(expected, abs=1e-12)

    def test_acquire_release_cycle_and_stats(self, tiny_session):
        pool = SessionPool(tiny_session, size=2)
        first = pool.acquire()
        second = pool.acquire()
        with pytest.raises(TimeoutError):
            pool.acquire(timeout=0.01)
        pool.release(first)
        third = pool.acquire()
        assert third is first
        stats = pool.stats()
        assert stats["size"] == 2 and stats["in_use"] == 2 and stats["peak_in_use"] == 2
        with pytest.raises(ValueError, match="not belong"):
            pool.release(tiny_session)
        pool.release(second)
        with pytest.raises(ValueError, match="twice"):
            pool.release(second)

    def test_concurrent_borrowers_get_distinct_workers(self, tiny_session):
        pool = SessionPool(tiny_session, size=2)
        seen = []
        barrier = threading.Barrier(2)

        def work():
            with pool.borrow(timeout=10) as worker:
                barrier.wait(timeout=10)
                seen.append(id(worker))

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 2


# ---------------------------------------------------------------------------
# HTTP server — smoke over a real socket
# ---------------------------------------------------------------------------


class TestServingServer:
    @pytest.fixture()
    def server(self, tiny_session):
        config = SchedulerConfig(max_batch_size=4, max_seq_len=64)
        with BackgroundServer(tiny_session, config=config, pool_size=1) as background:
            yield background.server

    def _post(self, server, path, payload, timeout=60):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
        conn.request("POST", path, json.dumps(payload), {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read().decode()
        conn.close()
        return response.status, body

    def test_concurrent_generate_requests_all_complete(self, server, tiny_session):
        n_requests = 8
        outputs = [None] * n_requests

        def fire(i):
            payload = {"prompt": [1 + i, 2, 3], "max_new_tokens": 3, "stream": i % 2 == 0}
            outputs[i] = self._post(server, "/generate", payload)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n_requests)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tiny_session.calibrate()
        for i, (status, body) in enumerate(outputs):
            assert status == 200
            lines = [json.loads(line) for line in body.strip().split("\n")]
            if i % 2 == 0:  # streamed: one line per token + final summary
                assert len(lines) == 4 and lines[-1]["done"]
                assert lines[-1]["request_id"].startswith("req-")
                tokens = lines[-1]["tokens"]
            else:
                tokens = lines[0]["tokens"]
            expected = tiny_session.engine.generate(np.asarray([1 + i, 2, 3]), 3, temperature=0.0)
            assert tokens == expected[3:].tolist()

    def test_stats_endpoint(self, server):
        self._post(server, "/generate", {"prompt": [1, 2], "max_new_tokens": 2, "stream": False})
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("GET", "/stats")
        response = conn.getresponse()
        stats = json.loads(response.read())
        conn.close()
        assert response.status == 200
        assert stats["scheduler"]["requests_completed"] >= 1
        assert stats["scheduler"]["tokens_per_second"] > 0
        assert stats["pool"]["size"] == 1

    def test_experiment_endpoint(self, server):
        spec = {
            "name": "served-exp",
            "model": {"name": "tiny"},
            "method": {"name": "dip", "target_density": 0.5},
            "eval": {"max_eval_sequences": 2, "primary_task": None},
            "hardware": None,
        }
        status, body = self._post(server, "/experiment", spec, timeout=120)
        assert status == 200
        rows = json.loads(body)["rows"]
        assert len(rows) == 1 and rows[0]["method"] == "dip"

    def test_error_paths(self, server):
        status, body = self._post(server, "/generate", {"prompt": []})
        assert status == 400 and "prompt" in json.loads(body)["error"]
        status, body = self._post(server, "/generate", {"max_new_tokens": 3})
        assert status == 400 and "missing required" in json.loads(body)["error"]
        status, body = self._post(server, "/experiment", {"bogus": 1})
        assert status == 400
        spec = {"name": "wrong-model", "model": {"name": "mistral-7b"},
                "method": {"name": "dip"}, "eval": {"primary_task": None}, "hardware": None}
        status, body = self._post(server, "/experiment", spec)
        assert status == 400 and "does not match" in json.loads(body)["error"]
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("GET", "/generate")
        assert conn.getresponse().status == 405
        conn.close()

    def test_streaming_rejection_is_a_clean_400(self, server):
        """An invalid streamed request must get a 400, not a corrupt chunked body."""
        payload = {"prompt": list(range(1, 60)), "max_new_tokens": 60, "stream": True}
        status, body = self._post(server, "/generate", payload)
        assert status == 400 and "max_seq_len" in json.loads(body)["error"]


# ---------------------------------------------------------------------------
# Lifecycle control: deadlines, cancellation, prefix caching in the scheduler
# ---------------------------------------------------------------------------


def _slow_down_steps(scheduler, seconds: float = 0.005):
    """Make each decode step take at least ``scaled(seconds)``.

    Timeout-path tests rely on the *ratio* step-duration : deadline (the
    request must emit at least one token before its deadline lands), so the
    slow-down stretches by the same :data:`conftest.TIME_SCALE` factor as
    the ``timeout_s`` constants it is paired with.
    """
    delay = scaled(seconds)
    original = scheduler.batch.step

    def slow_step(slots, tokens):
        time.sleep(delay)
        return original(slots, tokens)

    scheduler.batch.step = slow_step


class TestSchedulerLifecycle:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_deadline_evicts_mid_decode_and_readmits_queued(self, tiny_session):
        """The acceptance path: a timed-out request frees its slot, a queued
        request takes it over, and the loop keeps serving."""

        async def serve():
            config = SchedulerConfig(max_batch_size=1, max_seq_len=48)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                _slow_down_steps(sched)
                slow = asyncio.ensure_future(sched.submit(
                    GenerationRequest(prompt=(1, 2, 3), max_new_tokens=40, timeout_s=scaled(0.03))
                ))
                await asyncio.sleep(0)  # let the slow request enqueue first
                queued = asyncio.ensure_future(sched.submit(
                    GenerationRequest(prompt=(4, 5, 6), max_new_tokens=3)
                ))
                return await slow, await queued, sched.stats()

        slow, queued, stats = self._run(serve())
        assert slow.finish_reason == "timeout"
        assert 0 < slow.n_generated < 40  # partial continuation, not the full budget
        assert queued.finish_reason == "length" and queued.n_generated == 3
        tiny_session.calibrate()
        expected = tiny_session.engine.generate(np.asarray([4, 5, 6]), 3, temperature=0.0)
        assert np.array_equal(queued.full_sequence(), expected)
        assert stats["requests_timed_out"] == 1
        assert stats["requests_completed"] == 1
        assert stats["active_requests"] == 0 and stats["batch_occupancy"] == 0.0

    def test_queued_request_times_out_before_admission(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=1, max_seq_len=48)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                _slow_down_steps(sched)
                hog = asyncio.ensure_future(sched.submit(
                    GenerationRequest(prompt=(1, 2, 3), max_new_tokens=30)
                ))
                await asyncio.sleep(0)
                starved = await sched.submit(
                    GenerationRequest(prompt=(7, 8), max_new_tokens=5, timeout_s=scaled(0.02))
                )
                return await hog, starved

        hog, starved = self._run(serve())
        assert hog.finish_reason == "length" and hog.n_generated == 30
        assert starved.finish_reason == "timeout" and starved.n_generated == 0
        assert starved.queued_seconds >= 0.0

    def test_cancel_mid_stream_frees_slot_and_keeps_serving(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                stream = sched.stream(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=50))
                received = []
                async for token in stream:
                    received.append(token)
                    if len(received) == 3:
                        assert sched.cancel(stream.request_id)
                # cancelling an unknown/finished request is a no-op
                assert not sched.cancel(stream.request_id)
                assert not sched.cancel("req-does-not-exist")
                follow_up = await sched.submit(GenerationRequest(prompt=(4, 5), max_new_tokens=2))
                return received, stream.finish_reason, follow_up, sched.stats()

        received, reason, follow_up, stats = self._run(serve())
        assert reason == "cancelled"
        assert 3 <= len(received) < 50  # stopped early, well short of the budget
        assert follow_up.finish_reason == "length" and follow_up.n_generated == 2
        assert stats["requests_cancelled"] == 1
        assert stats["active_requests"] == 0 and stats["batch_occupancy"] == 0.0

    def test_cancel_queued_request(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=1, max_seq_len=48)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                _slow_down_steps(sched)
                hog = asyncio.ensure_future(sched.submit(
                    GenerationRequest(prompt=(1, 2, 3), max_new_tokens=20)
                ))
                await asyncio.sleep(0)
                waiting = sched.stream(GenerationRequest(prompt=(7, 8), max_new_tokens=5))
                assert sched.cancel(waiting.request_id)
                tokens = [t async for t in waiting]
                return await hog, tokens, waiting.finish_reason

        hog, tokens, reason = self._run(serve())
        assert hog.n_generated == 20
        assert tokens == [] and reason == "cancelled"

    def test_prefix_cache_parity_and_stats(self, tiny_session, rng):
        """Scheduler outputs are identical with the prefix cache on and off,
        and /stats reports the hit rate and token savings."""
        head = tuple(int(t) for t in rng.integers(0, 64, size=24))
        prompts = [head + tuple(int(t) for t in rng.integers(0, 64, size=int(s)))
                   for s in rng.integers(2, 7, size=8)]
        budgets = [int(b) for b in rng.integers(2, 6, size=8)]

        async def serve(prefix_cache_bytes):
            config = SchedulerConfig(
                max_batch_size=3, max_seq_len=64,
                prefix_cache_bytes=prefix_cache_bytes, prefix_block_size=8,
            )
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                results = await asyncio.gather(*[
                    sched.submit(GenerationRequest(prompt=p, max_new_tokens=b))
                    for p, b in zip(prompts, budgets)
                ])
                return results, sched.stats()

        cached, cached_stats = self._run(serve(1 << 22))
        plain, plain_stats = self._run(serve(0))
        for with_cache, without in zip(cached, plain):
            assert with_cache.tokens == without.tokens
        tiny_session.calibrate()
        for prompt, budget, result in zip(prompts, budgets, cached):
            expected = tiny_session.engine.generate(np.asarray(prompt), budget, temperature=0.0)
            assert np.array_equal(result.full_sequence(), expected)
        assert cached_stats["prefix_cache"]["enabled"]
        assert cached_stats["prefix_cache"]["hits"] > 0
        assert cached_stats["prefix_cache"]["hit_rate"] > 0.0
        assert cached_stats["prefix_cache"]["bytes"] > 0
        assert cached_stats["prefix_cache"]["prefill_tokens_saved"] > 0
        assert not plain_stats["prefix_cache"]["enabled"]
        assert plain_stats["prefix_cache"]["prefill_tokens_saved"] == 0

    def test_cache_state_method_disables_prefix_cache(self, trained_tiny_model,
                                                      calibration_sequences, eval_sequences):
        session = SparseSession(
            trained_tiny_model,
            CacheAwareDIP(target_density=0.5),
            calibration_sequences=calibration_sequences,
            eval_sequences=eval_sequences,
        )

        async def serve():
            async with ContinuousBatchingScheduler(session.share_calibration()) as sched:
                result = await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=2))
                return result, sched.stats()

        result, stats = self._run(serve())
        assert result.n_generated == 2
        assert not stats["prefix_cache"]["enabled"]

    def test_cache_prefix_false_bypasses_the_cache(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64, prefix_block_size=4)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                prompt = tuple(range(1, 9))
                first = await sched.submit(GenerationRequest(prompt=prompt, max_new_tokens=2))
                opted_out = await sched.submit(GenerationRequest(
                    prompt=prompt, max_new_tokens=2, cache_prefix=False
                ))
                return first, opted_out, sched.stats()

        first, opted_out, stats = self._run(serve())
        assert first.tokens == opted_out.tokens
        # The opted-out request neither looked up nor published: one lookup
        # total (the first request's own miss) and zero savings.
        assert stats["prefix_cache"]["lookups"] == 1
        assert stats["prefix_cache"]["prefill_tokens_saved"] == 0


class TestServerLifecycle:
    @pytest.fixture()
    def server(self, tiny_session):
        config = SchedulerConfig(max_batch_size=2, max_seq_len=64, prefix_block_size=4)
        with BackgroundServer(tiny_session, config=config, pool_size=1) as background:
            yield background.server

    def _get_stats(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        return stats

    def test_stats_reports_prefix_cache_and_lifecycle_counters(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        payload = {"prompt": list(range(1, 9)), "max_new_tokens": 2, "stream": False}
        conn.request("POST", "/generate", json.dumps(payload), {"Content-Type": "application/json"})
        first = json.loads(conn.getresponse().read())
        conn.close()
        assert first["finish_reason"] == "length"
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        conn.request("POST", "/generate", json.dumps(payload), {"Content-Type": "application/json"})
        conn.getresponse().read()
        conn.close()
        stats = self._get_stats(server)["scheduler"]
        assert stats["prefix_cache"]["enabled"]
        assert stats["prefix_cache"]["hits"] >= 1  # second request reused the head
        assert stats["prefix_cache"]["prefill_tokens_saved"] > 0
        assert stats["requests_timed_out"] == 0 and stats["requests_cancelled"] == 0

    def test_timeout_over_http_returns_partial_result(self, server):
        _slow_down_steps(server.scheduler)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        payload = {"prompt": [1, 2, 3], "max_new_tokens": 40, "timeout_s": scaled(0.03), "stream": False}
        conn.request("POST", "/generate", json.dumps(payload), {"Content-Type": "application/json"})
        response = conn.getresponse()
        result = json.loads(response.read())
        conn.close()
        assert response.status == 200
        assert result["finish_reason"] == "timeout"
        assert 0 < len(result["tokens"]) < 40

    def test_dropped_stream_cancels_the_request(self, server):
        """Disconnecting mid-stream must cancel server-side and free the slot."""
        _slow_down_steps(server.scheduler)
        payload = json.dumps({"prompt": [1, 2, 3], "max_new_tokens": 60, "stream": True}).encode()
        raw = socket.create_connection((server.host, server.port), timeout=30)
        raw.sendall(
            b"POST /generate HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload
        )
        raw.recv(256)  # the head plus the first chunk(s): decoding has started
        # RST on close so the server's next write/drain fails immediately.
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()
        def cancelled():
            stats = self._get_stats(server)["scheduler"]
            return stats["requests_cancelled"] >= 1 and stats["active_requests"] == 0

        wait_until(cancelled, timeout=10.0, message="server to cancel the dropped stream", interval=0.05)
        assert self._get_stats(server)["scheduler"]["tokens_generated"] < 60  # decode stopped early


# ---------------------------------------------------------------------------
# Observability: /metrics, traces, busy-time accounting
# ---------------------------------------------------------------------------


class TestObservability:
    def _run(self, coro):
        return asyncio.run(coro)

    def _get(self, server, path):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode()
        content_type = response.getheader("Content-Type")
        conn.close()
        return response.status, content_type, body

    @pytest.fixture()
    def server(self, tiny_session):
        config = SchedulerConfig(max_batch_size=4, max_seq_len=64)
        with BackgroundServer(tiny_session, config=config, pool_size=1) as background:
            yield background.server

    def test_metrics_endpoint_prometheus_and_json(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        payload = {"prompt": [1, 2, 3], "max_new_tokens": 3, "stream": False}
        conn.request("POST", "/generate", json.dumps(payload), {"Content-Type": "application/json"})
        conn.getresponse().read()
        conn.close()

        status, content_type, body = self._get(server, "/metrics")
        assert status == 200 and content_type.startswith("text/plain")
        assert "# TYPE serving_ttft_seconds histogram" in body
        assert re.search(r"serving_tokens_generated_total 3(\.0)?$", body, re.M)
        for line in body.splitlines():  # every sample line is exposition-format
            if line and not line.startswith("#"):
                assert re.match(r'^[a-z_0-9]+(\{[^}]*\})? \S+$', line), line

        status, content_type, body = self._get(server, "/metrics?format=json")
        assert status == 200 and content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["serving_requests_completed_total"]["samples"][0]["value"] == 1
        assert snapshot["serving_queue_depth"]["type"] == "gauge"
        (ttft,) = snapshot["serving_ttft_seconds"]["samples"]
        assert ttft["count"] == 1 and ttft["p50"] > 0

        status, _, body = self._get(server, "/metrics?format=bogus")
        assert status == 400 and "unknown metrics format" in body
        status, _, _ = self._get(server, "/nope")
        assert status == 404

    def test_generation_result_carries_timings(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                return await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))

        result = self._run(serve())
        timings = result.timings
        assert timings is not None
        assert set(timings) == {"queue_s", "prefill_s", "ttft_s", "decode_s",
                                "decode_tokens_per_s", "total_s"}
        assert 0 <= timings["queue_s"] <= timings["ttft_s"] <= timings["total_s"]
        assert timings["decode_tokens_per_s"] > 0  # 4 tokens decoded
        assert GenerationResult.from_json(result.to_json()) == result  # round-trips

    def test_tracing_off_means_no_timings(self, tiny_session):
        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64, trace_requests=False)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                return await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))

        assert self._run(serve()).timings is None

    def test_greedy_parity_tracing_on_vs_off(self, tiny_session, ragged_prompts, rng):
        budgets = [int(b) for b in rng.integers(1, 7, size=len(ragged_prompts))]

        async def serve(traced):
            config = SchedulerConfig(max_batch_size=4, max_seq_len=64, trace_requests=traced)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                return await asyncio.gather(*[
                    sched.submit(GenerationRequest(prompt=tuple(int(t) for t in p), max_new_tokens=b))
                    for p, b in zip(ragged_prompts, budgets)
                ])

        traced, untraced = self._run(serve(True)), self._run(serve(False))
        assert [r.tokens for r in traced] == [r.tokens for r in untraced]

    def test_trace_sink_records_every_request(self, tiny_session, tmp_path):
        from repro.obs import TraceSink

        path = tmp_path / "traces.ndjson"

        async def serve(sink):
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64)
            async with ContinuousBatchingScheduler(
                tiny_session.share_calibration(), config, trace_sink=sink
            ) as sched:
                await asyncio.gather(*[
                    sched.submit(GenerationRequest(prompt=(1 + i, 2, 3), max_new_tokens=2))
                    for i in range(3)
                ])

        with TraceSink(path) as sink:
            self._run(serve(sink))
            assert sink.written == 3
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == 3
        for entry in entries:
            assert entry["finish_reason"] == "length"
            assert [s["name"] for s in entry["spans"]] == ["queued", "prefill", "decode"]
            assert entry["timings"]["ttft_s"] > 0

    def test_idle_gap_does_not_deflate_tokens_per_second(self, tiny_session):
        """Busy time covers only admit/decode forwards, never idle waiting."""
        gap = scaled(0.3)

        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))
                await asyncio.sleep(gap)  # an idle gap between request bursts
                await sched.submit(GenerationRequest(prompt=(4, 5, 6), max_new_tokens=4))
                return sched.stats()

        stats = self._run(serve())
        assert stats["busy_seconds"] < gap * 0.85  # the idle gap is not busy time
        assert stats["busy_seconds"] == pytest.approx(
            stats["admit_seconds"] + stats["step_seconds"]
        )
        # Throughput over busy time stays decode-speed-sized instead of being
        # washed out to ~8/gap by the idle gap.
        assert stats["tokens_per_second"] > stats["tokens_generated"] / gap

    def test_expiry_sweeps_are_not_busy_time(self, tiny_session):
        """A slow deadline sweep over a deep queue must not count as decode."""
        sweep = scaled(0.02)

        async def serve():
            config = SchedulerConfig(max_batch_size=1, max_seq_len=64)
            async with ContinuousBatchingScheduler(tiny_session.share_calibration(), config) as sched:
                original = sched.batch.expired

                def slow_expired(now):
                    time.sleep(sweep)  # simulate an expensive expiry sweep
                    return original(now)

                sched.batch.expired = slow_expired
                result = await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=8))
                return result, sched.stats()

        result, stats = self._run(serve())
        assert result.n_generated == 8
        # >= 8 loop iterations x one sweep delay ran on the loop; none of it
        # may appear in the admit/step windows.
        assert stats["busy_seconds"] < 6 * sweep
        assert stats["tokens_per_second"] > stats["tokens_generated"] / (8 * sweep)

    def test_gather_backend_cache_stats_in_stats_and_metrics(
        self, trained_tiny_model, calibration_sequences, eval_sequences
    ):
        session = SparseSession(
            trained_tiny_model, "dip",
            calibration_sequences=calibration_sequences,
            eval_sequences=eval_sequences,
            model_name="tiny", backend="gather",
        )

        async def serve():
            config = SchedulerConfig(max_batch_size=2, max_seq_len=64)
            async with ContinuousBatchingScheduler(session.share_calibration(), config) as sched:
                await sched.submit(GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4))
                return sched.stats(), sched.registry.snapshot()

        stats, snapshot = self._run(serve())
        assert stats["backend"] == "gather"
        cache = stats["backend_cache"]
        assert set(cache) == {"gather_calls", "dense_calls", "plan_hits",
                              "misses", "promotions", "cached_plans"}
        assert cache["gather_calls"] + cache["dense_calls"] > 0
        (sample,) = snapshot["backend_gather_calls"]["samples"]
        assert sample["labels"] == {"backend": "gather"}
        assert sample["value"] == cache["gather_calls"]
