"""Asyncio continuous-batching scheduler over the engine's decode driver.

:class:`ContinuousBatchingScheduler` accepts :class:`GenerationRequest`\\ s at
any time and hands them to a
:class:`~repro.engine.inference.ContinuousDecoder`, which keeps a live batch
of sequences decoding in lock-step through a
:class:`~repro.engine.inference.ContinuousBatch`, retires each sequence the
moment it finishes, and admits queued prompts into the freed KV-cache slots —
ragged prompt lengths are handled by the left-padded prefill, so admission
never waits for equal-length batches.  The driver owns admission order,
sampling, budgets, deadlines and cancellation; this module adds intake and
back-pressure, streams, traces and metrics on top.

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
from typing import Any, AsyncIterator, Dict, Mapping, Optional, Union

from repro.backend import resolve_backend
from repro.engine.inference import (
    ADMISSION_POLICIES,
    ContinuousBatch,
    ContinuousDecoder,
    DecodeRequest,
)
from repro.nn.prefix_cache import PrefixCache
from repro.obs import MetricsRegistry, Trace, TraceSink, monotonic
from repro.pipeline.session import SparseSession
from repro.serving.requests import (
    GenerationRequest,
    GenerationResult,
    RequestError,
    run_experiment_payload,
)
from repro.utils.logging import get_logger

logger = get_logger("serving.scheduler")

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


class _Entry(DecodeRequest):
    """Scheduler-side state of one in-flight request."""

    __slots__ = ("request", "stream", "submitted_at", "started_at", "finished_at", "trace")

    def __init__(self, request: GenerationRequest, trace_requests: bool = True) -> None:
        submitted_at = monotonic()
        super().__init__(
            request.request_id,
            request.prompt,
            request.max_new_tokens,
            temperature=request.temperature,
            seed=request.seed,
            deadline=submitted_at + request.timeout_s if request.timeout_s is not None else None,
            cache_prefix=request.cache_prefix,
        )
        self.request = request
        self.stream: asyncio.Queue[object] = asyncio.Queue()
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.trace: Optional[Trace] = (
            Trace(request.request_id, now=submitted_at) if trace_requests else None
        )

    def result(self) -> GenerationResult:
        # A request retired while still queued (timeout/cancel before
        # admission) spent its whole life waiting: attribute that to
        # queued_seconds, not decode_seconds.
        assert self.finish_reason is not None  # results exist only once retired
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
    def finish_reason(self) -> Optional[str]:
        """Why the request finished (``None`` while it is live)."""
        return self._entry.finish_reason

    def __aiter__(self) -> AsyncIterator[int]:
        return self._drain()

    async def _drain(self) -> AsyncIterator[int]:
        while True:
            item = await self._entry.stream.get()
            if item is _DONE:
                self._raise_if_failed()
                return
            assert isinstance(item, int)  # the queue carries tokens and _DONE
            yield item

    def result(self) -> GenerationResult:
        """The finished request's :class:`GenerationResult`; drain the stream first.

        Raises ``RuntimeError`` if the request failed server-side (its decode
        iteration raised) or has not finished yet.
        """
        if self._entry.finish_reason is None:
            raise RuntimeError(f"request {self.request_id} has not finished; drain its stream first")
        self._raise_if_failed()
        return self._entry.result()

    def _raise_if_failed(self) -> None:
        if self._entry.error is not None:
            raise RuntimeError(
                f"request {self.request_id} failed: {self._entry.error}"
            ) from self._entry.error


class ContinuousBatchingScheduler:
    """Serve generation requests through one shared continuous batch.

    Built over a calibrated :class:`~repro.pipeline.session.SparseSession`;
    the session's sparsity method stays active during decode, and every
    prefill/decode forward runs under the session's compute backend (see
    :mod:`repro.backend`).  Methods whose
    masks depend on a cache state (``requires_cache_state``, i.e. DIP-CA)
    define token order as part of the method, so the scheduler degrades to a
    batch width of 1 for them (requests are still queued and streamed
    asynchronously) and the driver resets the method before each admission.

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
        self.batch = ContinuousBatch.from_engine(
            session.engine,
            max_batch_size=width,
            max_seq_len=self.config.max_seq_len,
            prefix_cache=self.prefix_cache,
        )
        self.decoder: ContinuousDecoder[_Entry] = ContinuousDecoder(
            self.batch, self.config.admission
        )
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
    async def submit(self, request: GenerationRequest) -> GenerationResult:
        """Queue a request and await its completed :class:`GenerationResult`.

        Raises ``RuntimeError`` if the request failed server-side (its decode
        iteration raised); other queued requests are unaffected.
        """
        stream = self.stream(request)
        async for _token in stream:
            pass
        return stream.result()

    def stream(self, request: GenerationRequest) -> TokenStream:
        """Queue a request and return an async iterator over its tokens.

        Queueing (and its validation) happens *eagerly* at the call, not at
        the first ``__anext__`` — so callers can reject a bad request before
        committing to a streamed response — and the returned
        :class:`TokenStream` carries the scheduler-assigned ``request_id``
        (the HTTP server relies on both).
        """
        if self._task is None:
            raise RuntimeError("scheduler is not running; use 'async with' or await start()")
        if self._stopping:
            raise RuntimeError("scheduler is stopping; no new requests accepted")
        if len(self.decoder.waiting) >= self.config.max_queue:
            raise RequestError(f"queue full ({self.config.max_queue} requests waiting)")
        self._request_counter += 1
        updates: Dict[str, object] = {}
        if not request.request_id:
            updates["request_id"] = f"req-{self._request_counter}"
        if not request.arrival_time:
            updates["arrival_time"] = time.time()
        if updates:
            request = dataclasses.replace(request, **updates)
        entry = _Entry(request, trace_requests=self.config.trace_requests)
        try:
            self.decoder.submit(entry)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
        self._c_submitted.inc()
        self._wake.set()
        return TokenStream(entry)

    async def experiment(self, payload: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
        """Run an :class:`~repro.pipeline.spec.ExperimentSpec` payload beside decoding.

        The payload runs through :func:`~repro.serving.requests.run_experiment_payload`
        in a thread, on a fresh :meth:`~repro.pipeline.session.SparseSession.share_calibration`
        copy of the session.  The copy is taken here, on the loop thread
        between decode steps, so it never captures a cache-state method
        mid-step; decoding keeps running while the experiment does.
        """
        session = self.session.share_calibration()
        return await asyncio.to_thread(run_experiment_payload, payload, session=session)

    # ------------------------------------------------------------ cancellation
    def cancel(self, request_id: str) -> bool:
        """Retire a queued or in-flight request with ``finish_reason="cancelled"``.

        Frees the request's KV slot immediately (mid-decode cancellation) so
        the next queued request can be admitted.  Returns ``False`` when the
        id is unknown or the request already finished — cancelling a gone
        request is a no-op, not an error (the HTTP server calls this whenever
        a streaming client disconnects, finished or not).
        """
        entry = self.decoder.find(request_id)
        if entry is None:
            return False
        self.decoder.finish(entry, "cancelled")
        self._retire(entry)
        return True

    def _retire(self, entry: _Entry) -> None:
        """Count, trace and close the stream of a request the driver finished."""
        reason = entry.finish_reason
        assert reason is not None  # only finished requests retire
        {
            "length": self._c_completed,
            "error": self._c_failed,
            "timeout": self._c_timed_out,
            "cancelled": self._c_cancelled,
        }[reason].inc()
        entry.finished_at = monotonic()
        if entry.trace is not None:
            if entry.error is not None:
                entry.trace.annotate("error", str(entry.error))
            entry.trace.finish(reason, now=entry.finished_at)
            if self._trace_sink is not None:
                self._trace_sink.write(entry.trace)
        entry.stream.put_nowait(_DONE)

    def _expire_deadlines(self) -> None:
        """Retire every queued or active request whose deadline has passed."""
        for entry in self.decoder.overdue(monotonic()):
            logger.info("request %s timed out after %d token(s)", entry.key, len(entry.tokens))
            self.decoder.finish(entry, "timeout")
            self._retire(entry)

    # ------------------------------------------------------------------- stats
    def _collect_gauges(self) -> None:
        """Mirror externally-owned state into registry gauges (collector hook)."""
        reg = self.registry
        reg.gauge("serving_queue_depth").set(len(self.decoder.waiting))
        reg.gauge("serving_active_requests").set(len(self.decoder.active))
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
            "queue_depth": len(self.decoder.waiting),
            "active_requests": len(self.decoder.active),
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
            "method": self.session.method.name,
            "model": self.session.model_name,
            "backend": backend.name,
            "prefix_cache": prefix,
        }
        cache_stats = getattr(backend, "cache_stats", None)
        if callable(cache_stats):
            payload["backend_cache"] = cache_stats()
        return payload

    # -------------------------------------------------------------- decode loop
    def _start(self, entry: _Entry, admitted_at: float, prefilled_at: float) -> None:
        """Trace the admission of an entry the driver just prefilled."""
        if entry.trace is not None:
            entry.trace.mark_admitted(admitted_at)
        if entry.error is not None:
            return
        entry.started_at = admitted_at
        if entry.trace is not None:
            assert entry.slot is not None  # admitted without error
            prompt_tokens, forwarded = self.batch.slot_prefill[entry.slot]
            entry.trace.mark_prefilled(prompt_tokens, forwarded, now=prefilled_at)
            self._h_queue.observe(admitted_at - entry.submitted_at)

    def _emit(self, entry: _Entry) -> None:
        """Stream the token the driver just sampled; retire the entry once finished."""
        if entry.error is None:
            entry.stream.put_nowait(entry.tokens[-1])
            self._c_tokens.inc()
            if entry.trace is not None:
                entry.trace.mark_token()
                times = entry.trace.token_times
                if len(times) == 1:
                    self._h_ttft.observe(times[0] - entry.trace.created_s)
                else:
                    self._h_itl.observe(times[-1] - times[-2])
        if entry.finish_reason is not None:
            self._retire(entry)

    async def _run(self) -> None:
        logger.info(
            "scheduler started: max_batch_size=%d admission=%s method=%s",
            self.batch.max_batch_size, self.config.admission, self.session.method.name,
        )
        while True:
            if self.decoder.idle:
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
            # Offloading each step would add an executor hop per token.
            admit_started = monotonic()
            admitted = self.decoder.admit()  # reprolint: disable=RL001 -- deliberate lock-step admission into the decode batch
            prefilled = monotonic()
            for entry in admitted:
                self._start(entry, admit_started, prefilled)
                self._emit(entry)
            step_started = monotonic()
            self._c_admit_seconds.inc(step_started - admit_started)
            stepped = self.decoder.step()  # reprolint: disable=RL001 -- deliberate lock-step decode step; yields via sleep(0) below
            if stepped and stepped[0].error is None:  # a failed step served no one
                self._c_steps.inc()
                self._c_step_slots.inc(len(stepped))
            for entry in stepped:
                self._emit(entry)
            self._c_step_seconds.inc(monotonic() - step_started)
            # Yield so clients can consume streams and new submissions land.
            await asyncio.sleep(0)
        logger.info("scheduler stopped: %d requests served", int(self._c_completed.value))
