"""Asyncio continuous-batching scheduler over the slot-wise decode core.

:class:`ContinuousBatchingScheduler` accepts :class:`GenerationRequest`\\ s at
any time, keeps a live batch of sequences decoding in lock-step through a
:class:`~repro.engine.inference.ContinuousBatch`, retires each sequence the
moment it finishes, and admits queued prompts into the freed KV-cache slots —
ragged prompt lengths are handled by the left-padded prefill, so admission
never waits for equal-length batches.

Determinism contract: with greedy decoding (``temperature == 0``) every
request's tokens are identical to a one-at-a-time
:meth:`~repro.engine.inference.SparseInferenceEngine.generate` call,
regardless of arrival order, admission policy, or batch composition — and
regardless of whether the prefix cache served any of the prompt heads, or
whether per-request tracing is enabled.  Sampled decoding draws from a
per-request RNG (``request.seed``), so a request's draws do not depend on
its batch neighbours either.

Lifecycle control: a request with ``timeout_s`` is retired the moment its
deadline passes — still queued or mid-decode (its KV slot is freed
immediately and handed to the next queued request) — finishing with
``finish_reason="timeout"`` and its partial tokens.  :meth:`cancel` does the
same on demand (``finish_reason="cancelled"``); the HTTP server calls it
when a streaming client disconnects.

Observability: every lifetime counter lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (``registry`` — by default a
private one so per-scheduler counts stay exact; pass
``repro.obs.get_registry()`` to aggregate process-wide), the server exposes
it at ``GET /metrics``, and with ``SchedulerConfig.trace_requests`` each
request carries a :class:`~repro.obs.tracing.Trace` of timed spans
(queued → admitted → prefill → per-step decode → finished) surfaced as
``GenerationResult.timings`` and, via ``trace_sink``, an ndjson request log.
Busy time is accounted per phase — ``serving_admit_seconds_total`` /
``serving_step_seconds_total`` wrap only the prefill and decode forwards —
so ``tokens_per_second`` is measured over decode-active wall time and can
never be deflated by idle periods or queue-expiry sweeps.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import AsyncIterator, Dict, List, Optional

import numpy as np

from repro.backend import resolve_backend
from repro.engine.inference import ContinuousBatch
from repro.nn.prefix_cache import PrefixCache
from repro.nn.transformer import _sample_token
from repro.obs import MetricsRegistry, Trace, TraceSink, monotonic
from repro.pipeline.session import SparseSession
from repro.serving.requests import GenerationRequest, GenerationResult, RequestError
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("serving.scheduler")

#: Admission policies: first-come-first-served, or shortest prompt first
#: (minimises padded prefill width when many ragged prompts are queued).
ADMISSION_POLICIES = ("fcfs", "shortest")

_DONE = object()  # stream sentinel


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the continuous-batching scheduler."""

    #: KV-cache slots decoding concurrently (the live batch width).
    max_batch_size: int = 8
    #: Queued requests beyond which ``submit`` raises (back-pressure).
    max_queue: int = 1024
    #: Admission order for queued prompts (see :data:`ADMISSION_POLICIES`).
    admission: str = "fcfs"
    #: KV-cache capacity per slot; ``None`` uses the model's ``max_seq_len``.
    max_seq_len: Optional[int] = None
    #: Token id used for left-padding ragged admission prefills.
    pad_id: int = 0
    #: Byte budget of the shared-prompt-head prefix cache; ``0`` disables it.
    #: (Also disabled automatically for cache-state methods, whose masks
    #: depend on token order.)
    prefix_cache_bytes: int = 32 * 1024 * 1024
    #: Token granularity of prefix sharing (trie block size).
    prefix_block_size: int = 16
    #: Attach a per-request :class:`~repro.obs.tracing.Trace` (timed spans,
    #: ``GenerationResult.timings``, latency histograms).  ``False`` keeps
    #: only the aggregate counters — the instrumentation-off baseline of
    #: ``benchmarks/bench_latency_slo.py``'s overhead gate.
    trace_requests: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy '{self.admission}'; use {ADMISSION_POLICIES}")
        if self.prefix_cache_bytes < 0:
            raise ValueError("prefix_cache_bytes must be non-negative (0 disables the cache)")
        if self.prefix_block_size <= 0:
            raise ValueError("prefix_block_size must be positive")


class _Entry:
    """Scheduler-side state of one in-flight request."""

    __slots__ = ("request", "rng", "tokens", "stream", "slot", "last_token", "error",
                 "submitted_at", "started_at", "finished_at", "deadline", "finish_reason",
                 "trace")

    def __init__(self, request: GenerationRequest, trace_requests: bool = True) -> None:
        self.request = request
        self.rng = new_rng(request.seed)
        self.tokens: List[int] = []
        self.stream: asyncio.Queue[object] = asyncio.Queue()
        self.slot: Optional[int] = None
        # The token fed back at the next decode step; always written by the
        # admission-time _emit before any _step reads it.
        self.last_token: int = -1
        self.error: Optional[BaseException] = None
        self.submitted_at = monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.deadline: Optional[float] = (
            self.submitted_at + request.timeout_s if request.timeout_s is not None else None
        )
        self.finish_reason = "length"
        self.trace: Optional[Trace] = (
            Trace(request.request_id, now=self.submitted_at) if trace_requests else None
        )

    @property
    def remaining(self) -> int:
        return self.request.max_new_tokens - len(self.tokens)

    def result(self) -> GenerationResult:
        # A request retired while still queued (timeout/cancel before
        # admission) spent its whole life waiting: attribute that to
        # queued_seconds, not decode_seconds.
        end = self.finished_at if self.finished_at is not None else self.submitted_at
        if self.started_at is None:
            queued, decode = end - self.submitted_at, 0.0
        else:
            queued, decode = self.started_at - self.submitted_at, end - self.started_at
        return GenerationResult(
            request_id=self.request.request_id,
            prompt=self.request.prompt,
            tokens=tuple(self.tokens),
            finish_reason=self.finish_reason,
            queued_seconds=queued,
            decode_seconds=decode,
            timings=self.trace.timings() if self.trace is not None else None,
        )


class TokenStream:
    """Async iterator over a queued request's tokens.

    ``request`` / ``request_id`` carry the scheduler-assigned identity (a
    blank ``request_id`` is filled in at queueing), so streaming consumers
    can correlate the stream with ``stats()`` and server logs.
    """

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    @property
    def request(self) -> GenerationRequest:
        return self._entry.request

    @property
    def request_id(self) -> str:
        return self._entry.request.request_id

    @property
    def finish_reason(self) -> str:
        """Why the stream ended (meaningful once iteration completes)."""
        return self._entry.finish_reason

    def __aiter__(self) -> AsyncIterator[int]:
        return self._drain()

    async def _drain(self) -> AsyncIterator[int]:
        while True:
            item = await self._entry.stream.get()
            if item is _DONE:
                ContinuousBatchingScheduler._raise_if_failed(self._entry)
                return
            assert isinstance(item, int)  # the queue carries tokens and _DONE
            yield item


class ContinuousBatchingScheduler:
    """Serve generation requests through one shared continuous batch.

    Built over a calibrated :class:`~repro.pipeline.session.SparseSession`;
    the session's sparsity method stays active during decode, and every
    prefill/decode forward runs under the session's compute backend (see
    :mod:`repro.backend`).  Methods whose
    masks depend on a cache state (``requires_cache_state``, i.e. DIP-CA)
    define token order as part of the method, so the scheduler degrades to a
    batch width of 1 for them (requests are still queued and streamed
    asynchronously) and resets the method before each admission.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`::

        async with ContinuousBatchingScheduler(session) as scheduler:
            result = await scheduler.submit(GenerationRequest(prompt=(1, 2, 3)))
    """

    def __init__(
        self,
        session: SparseSession,
        config: Optional[SchedulerConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        if session.engine is None:
            raise ValueError("the scheduler needs a session with a prepared model")
        self.session = session
        self.config = config if config is not None else SchedulerConfig()
        session.calibrate()
        self._sequential_method = bool(session.method.requires_cache_state)
        width = 1 if self._sequential_method else self.config.max_batch_size
        # Prefix caching is skipped for cache-state methods: reusing a head's
        # K/V would skip the prefix forward and change the method's masks.
        self.prefix_cache: Optional[PrefixCache] = None
        if not self._sequential_method and self.config.prefix_cache_bytes > 0:
            self.prefix_cache = PrefixCache(
                self.config.prefix_cache_bytes, self.config.prefix_block_size
            )
        self.batch = ContinuousBatch(
            session.engine.model,
            mlp_override=session.engine.mlp_override,
            max_batch_size=width,
            max_seq_len=self.config.max_seq_len,
            pad_id=self.config.pad_id,
            prefix_cache=self.prefix_cache,
            backend=session.backend,
        )
        self._waiting: List[_Entry] = []
        self._active: Dict[int, _Entry] = {}  # slot -> entry
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task[None]] = None
        self._stopping = False
        self._request_counter = 0
        self._trace_sink = trace_sink
        #: The registry behind ``/stats`` and ``/metrics``.  A private one by
        #: default so per-scheduler counts stay exact under tests; pass
        #: ``repro.obs.get_registry()`` to aggregate into the process global.
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._c_submitted = reg.counter("serving_requests_submitted_total")
        self._c_completed = reg.counter("serving_requests_completed_total")
        self._c_failed = reg.counter("serving_requests_failed_total")
        self._c_timed_out = reg.counter("serving_requests_timed_out_total")
        self._c_cancelled = reg.counter("serving_requests_cancelled_total")
        self._c_tokens = reg.counter("serving_tokens_generated_total")
        self._c_steps = reg.counter("serving_decode_steps_total")
        self._c_step_slots = reg.counter("serving_decode_step_slots_total")
        # Decode-active wall time, by phase: admit wraps only the batched
        # prefill forwards, step only the lock-step decode forwards — never
        # queue-expiry sweeps or loop bookkeeping, so throughput derived from
        # them cannot be skewed by idle periods.
        self._c_admit_seconds = reg.counter("serving_admit_seconds_total")
        self._c_step_seconds = reg.counter("serving_step_seconds_total")
        method_labels = {"method": session.method.name}
        self._h_queue = reg.histogram("serving_queue_seconds", labels=method_labels)
        self._h_ttft = reg.histogram("serving_ttft_seconds", labels=method_labels)
        self._h_itl = reg.histogram("serving_intertoken_seconds", labels=method_labels)
        reg.register_collector(self._collect_gauges)

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._task is not None:
            return
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Finish in-flight and queued work, then stop the decode loop."""
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None

    async def __aenter__(self) -> "ContinuousBatchingScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ intake
    def _enqueue(self, request: GenerationRequest) -> _Entry:
        if self._task is None:
            raise RuntimeError("scheduler is not running; use 'async with' or await start()")
        if self._stopping:
            raise RuntimeError("scheduler is stopping; no new requests accepted")
        if len(self._waiting) >= self.config.max_queue:
            raise RequestError(f"queue full ({self.config.max_queue} requests waiting)")
        prompt_room = self.batch.max_seq_len - len(request.prompt)
        if prompt_room <= 0:
            raise RequestError(
                f"prompt of {len(request.prompt)} tokens leaves no decode room in "
                f"max_seq_len={self.batch.max_seq_len}"
            )
        # The KV cache fills to prompt_len + max_new_tokens - 1 (the final
        # sampled token is never fed back); reject anything that cannot fit
        # instead of letting the decode loop overflow mid-flight.
        if request.max_new_tokens - 1 > prompt_room:
            raise RequestError(
                f"prompt of {len(request.prompt)} tokens + max_new_tokens="
                f"{request.max_new_tokens} exceeds max_seq_len={self.batch.max_seq_len}; "
                f"at most {prompt_room + 1} new tokens fit"
            )
        self._request_counter += 1
        updates: Dict[str, object] = {}
        if not request.request_id:
            updates["request_id"] = f"req-{self._request_counter}"
        if not request.arrival_time:
            updates["arrival_time"] = time.time()
        if updates:
            request = dataclasses.replace(request, **updates)
        entry = _Entry(request, trace_requests=self.config.trace_requests)
        self._waiting.append(entry)
        self._c_submitted.inc()
        self._wake.set()
        return entry

    async def submit(self, request: GenerationRequest) -> GenerationResult:
        """Queue a request and await its completed :class:`GenerationResult`.

        Raises ``RuntimeError`` if the request failed server-side (its decode
        iteration raised); other queued requests are unaffected.
        """
        entry = self._enqueue(request)
        while True:
            item = await entry.stream.get()
            if item is _DONE:
                self._raise_if_failed(entry)
                return entry.result()

    def stream(self, request: GenerationRequest) -> "TokenStream":
        """Queue a request and return an async iterator over its tokens.

        Queueing (and its validation) happens *eagerly* at the call, not at
        the first ``__anext__`` — so callers can reject a bad request before
        committing to a streamed response — and the returned
        :class:`TokenStream` carries the scheduler-assigned ``request_id``
        (the HTTP server relies on both).
        """
        return TokenStream(self._enqueue(request))

    @staticmethod
    def _raise_if_failed(entry: _Entry) -> None:
        if entry.error is not None:
            raise RuntimeError(
                f"request {entry.request.request_id} failed: {entry.error}"
            ) from entry.error

    # ------------------------------------------------------------ cancellation
    def cancel(self, request_id: str) -> bool:
        """Retire a queued or in-flight request with ``finish_reason="cancelled"``.

        Frees the request's KV slot immediately (mid-decode cancellation) so
        the next queued request can be admitted.  Returns ``False`` when the
        id is unknown or the request already finished — cancelling a gone
        request is a no-op, not an error (the HTTP server calls this whenever
        a streaming client disconnects, finished or not).
        """
        for index, entry in enumerate(self._waiting):
            if entry.request.request_id == request_id:
                del self._waiting[index]
                self._c_cancelled.inc()
                self._retire(entry, "cancelled")
                return True
        for entry in list(self._active.values()):
            if entry.request.request_id == request_id:
                self._c_cancelled.inc()
                self._retire(entry, "cancelled")
                return True
        return False

    def _retire(self, entry: _Entry, reason: str) -> None:
        """Finish ``entry`` with ``reason``, freeing its slot if it has one."""
        entry.finish_reason = reason
        entry.finished_at = monotonic()
        if entry.slot is not None and entry.slot in self._active:
            self.batch.evict(entry.slot)
            del self._active[entry.slot]
        if entry.trace is not None:
            if entry.error is not None:
                entry.trace.annotate("error", str(entry.error))
            entry.trace.finish(reason, now=entry.finished_at)
            if self._trace_sink is not None:
                self._trace_sink.write(entry.trace)
        entry.stream.put_nowait(_DONE)

    def _expire_deadlines(self) -> None:
        """Retire every queued or active request whose deadline has passed."""
        now = monotonic()
        overdue = [e for e in self._waiting if e.deadline is not None and now >= e.deadline]
        if overdue:
            self._waiting = [e for e in self._waiting if e not in overdue]
            for entry in overdue:
                self._c_timed_out.inc()
                self._retire(entry, "timeout")
        for slot, request_id in self.batch.expired(now):
            entry = self._active.get(slot)
            if entry is None:  # pragma: no cover - defensive (metadata drift)
                self.batch.evict(slot)
                continue
            logger.info("request %s timed out after %d token(s); freeing slot %d",
                        request_id, len(entry.tokens), slot)
            self._c_timed_out.inc()
            self._retire(entry, "timeout")

    # ------------------------------------------------------------------- stats
    def _collect_gauges(self) -> None:
        """Mirror externally-owned state into registry gauges (collector hook)."""
        reg = self.registry
        reg.gauge("serving_queue_depth").set(len(self._waiting))
        reg.gauge("serving_active_requests").set(len(self._active))
        reg.gauge("serving_batch_occupancy").set(self.batch.occupancy / self.batch.max_batch_size)
        reg.gauge("prefix_cache_enabled").set(1 if self.prefix_cache is not None else 0)
        reg.gauge("prefill_tokens_total").set(self.batch.prefill_tokens_total)
        reg.gauge("prefill_tokens_forwarded").set(self.batch.prefill_tokens_forwarded)
        reg.gauge("prefill_tokens_saved").set(
            self.batch.prefill_tokens_total - self.batch.prefill_tokens_forwarded
        )
        if self.prefix_cache is not None:
            cache = self.prefix_cache.stats()
            reg.gauge("prefix_cache_bytes").set(cache["bytes"])
            reg.gauge("prefix_cache_lookups").set(cache["lookups"])
            reg.gauge("prefix_cache_hits").set(cache["hits"])
            reg.gauge("prefix_cache_misses").set(cache["misses"])
            reg.gauge("prefix_cache_hit_tokens").set(cache["hit_tokens"])
        backend = resolve_backend(self.session.backend)
        cache_stats = getattr(backend, "cache_stats", None)
        if callable(cache_stats):
            plan = cache_stats()
            labels = {"backend": backend.name}
            reg.gauge("backend_gather_calls", labels=labels).set(plan["gather_calls"])
            reg.gauge("backend_dense_calls", labels=labels).set(plan["dense_calls"])
            reg.gauge("backend_plan_cache_hits", labels=labels).set(plan["plan_hits"])
            reg.gauge("backend_plan_cache_misses", labels=labels).set(plan["misses"])
            reg.gauge("backend_plan_cache_promotions", labels=labels).set(plan["promotions"])

    def stats(self) -> Dict[str, object]:
        """Live scheduler metrics (the server's ``/stats`` payload)."""
        admit_seconds = self._c_admit_seconds.value
        step_seconds = self._c_step_seconds.value
        busy = admit_seconds + step_seconds
        steps = int(self._c_steps.value)
        tokens = int(self._c_tokens.value)
        prefix: Dict[str, object] = {"enabled": self.prefix_cache is not None}
        if self.prefix_cache is not None:
            prefix.update(self.prefix_cache.stats())
        prefix["prefill_tokens_total"] = self.batch.prefill_tokens_total
        prefix["prefill_tokens_forwarded"] = self.batch.prefill_tokens_forwarded
        prefix["prefill_tokens_saved"] = (
            self.batch.prefill_tokens_total - self.batch.prefill_tokens_forwarded
        )
        backend = resolve_backend(self.session.backend)
        payload: Dict[str, object] = {
            "queue_depth": len(self._waiting),
            "active_requests": len(self._active),
            "max_batch_size": self.batch.max_batch_size,
            "batch_occupancy": self.batch.occupancy / self.batch.max_batch_size,
            "mean_step_batch": (self._c_step_slots.value / steps) if steps else 0.0,
            "requests_submitted": int(self._c_submitted.value),
            "requests_completed": int(self._c_completed.value),
            "requests_failed": int(self._c_failed.value),
            "requests_timed_out": int(self._c_timed_out.value),
            "requests_cancelled": int(self._c_cancelled.value),
            "tokens_generated": tokens,
            "decode_steps": steps,
            "admit_seconds": admit_seconds,
            "step_seconds": step_seconds,
            "busy_seconds": busy,
            "tokens_per_second": (tokens / busy) if busy > 0 else 0.0,
            "sequential_method": self._sequential_method,
            "backend": backend.name,
            "prefix_cache": prefix,
        }
        cache_stats = getattr(backend, "cache_stats", None)
        if callable(cache_stats):
            payload["backend_cache"] = cache_stats()
        return payload

    # -------------------------------------------------------------- decode loop
    def _take_admissible(self, n_free: int) -> List[_Entry]:
        if self.config.admission == "shortest":
            self._waiting.sort(key=lambda e: len(e.request.prompt))
        taken, self._waiting = self._waiting[:n_free], self._waiting[n_free:]
        return taken

    def _emit(self, entry: _Entry, logits_row: np.ndarray) -> None:
        """Sample one token for ``entry``, stream it, retire when done."""
        token = _sample_token(logits_row, entry.request.temperature, entry.rng)
        entry.tokens.append(token)
        entry.last_token = token
        entry.stream.put_nowait(token)
        self._c_tokens.inc()
        if entry.trace is not None:
            entry.trace.mark_token()
            times = entry.trace.token_times
            if len(times) == 1:
                self._h_ttft.observe(times[0] - entry.trace.created_s)
            else:
                self._h_itl.observe(times[-1] - times[-2])
        if entry.remaining <= 0:
            self._c_completed.inc()
            self._retire(entry, "length")

    def _fail_entries(self, entries: List[_Entry], error: BaseException) -> None:
        """Retire entries with an error so their awaiters never hang."""
        for entry in entries:
            entry.error = error
            self._c_failed.inc()
            self._retire(entry, "error")

    def _admit(self) -> None:
        n_free = len(self.batch.free_slots())
        if not self._waiting or not n_free:
            return
        entries = self._take_admissible(n_free)
        if self._sequential_method:
            self.session.method.reset()
        now = monotonic()
        for entry in entries:
            if entry.trace is not None:
                entry.trace.mark_admitted(now)
        try:
            slots, logits = self.batch.admit(
                [e.request.prompt_array() for e in entries],
                request_ids=[e.request.request_id for e in entries],
                deadlines=[e.deadline for e in entries],
                cache_prefix=[e.request.cache_prefix for e in entries],
            )
        except Exception as exc:
            logger.exception("admission failed; failing %d request(s)", len(entries))
            self._fail_entries(entries, exc)
            return
        prefilled = monotonic()
        for row, (entry, slot) in enumerate(zip(entries, slots)):
            entry.slot = slot
            entry.started_at = now
            self._active[slot] = entry
            if entry.trace is not None:
                prompt_tokens, forwarded = self.batch.slot_prefill.get(
                    slot, (len(entry.request.prompt), len(entry.request.prompt))
                )
                entry.trace.mark_prefilled(prompt_tokens, forwarded, now=prefilled)
                self._h_queue.observe(now - entry.submitted_at)
            self._emit(entry, logits[row])

    def _step(self) -> None:
        if not self._active:
            return
        slots = sorted(self._active)
        try:
            logits = self.batch.step(slots, [self._active[s].last_token for s in slots])
        except Exception as exc:
            # Fail the whole live batch rather than the decode loop: waiting
            # requests are untouched and keep being served.
            logger.exception("decode step failed; failing %d active request(s)", len(slots))
            self._fail_entries([self._active[s] for s in slots], exc)
            return
        self._c_steps.inc()
        self._c_step_slots.inc(len(slots))
        for row, slot in enumerate(slots):
            self._emit(self._active[slot], logits[row])

    async def _run(self) -> None:
        logger.info(
            "scheduler started: max_batch_size=%d admission=%s method=%s",
            self.batch.max_batch_size, self.config.admission, self.session.method.name,
        )
        while True:
            if not self._waiting and not self._active:
                if self._stopping:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            # Expiry sweeps run *outside* the busy window: retiring overdue
            # queued requests is bookkeeping, not decode work, and must never
            # deflate tokens_per_second.
            self._expire_deadlines()
            # The decode loop is deliberately lock-step: one numpy forward per
            # iteration on the loop thread, with an await-point between steps.
            # Offloading each step would add an executor hop per token and
            # serialise against the session pool anyway.
            admit_started = monotonic()
            self._admit()  # reprolint: disable=RL001 -- deliberate lock-step admission into the decode batch
            step_started = monotonic()
            self._c_admit_seconds.inc(step_started - admit_started)
            self._step()  # reprolint: disable=RL001 -- deliberate lock-step decode step; yields via sleep(0) below
            self._c_step_seconds.inc(monotonic() - step_started)
            # Yield so clients can consume streams and new submissions land.
            await asyncio.sleep(0)
        logger.info("scheduler stopped: %d requests served", int(self._c_completed.value))
