"""The fleet manager: router + worker pool with health, restart, re-dispatch.

:class:`FleetManager` launches ``decode_workers`` decode workers and
``experiment_workers`` experiment workers over a pluggable transport
(:mod:`repro.serving.fleet.exchange`), routes :class:`GenerationRequest`\\ s
to the least-loaded decode worker and experiment payloads
to the experiment class, and supervises the lot:

* one receiver thread per worker drains its mailbox (tokens, results,
  heartbeats) and watches liveness — transport EOF, a dead process, or
  heartbeat silence longer than ``heartbeat_timeout_s`` declares the worker
  dead;
* a dead worker is relaunched (up to ``max_restarts`` per slot) and every
  request that was in flight on it is **re-dispatched** to a live worker.
  Workers reset per request and decode deterministically (greedy or seeded),
  so the retried request reproduces the same token sequence; tokens the
  client already received are suppressed by index and the stream continues
  seamlessly from where the dead worker stopped;
* ``stop(drain=True)`` lets queued and in-flight work finish (bounded by
  ``drain_timeout_s``) before workers are told to stop, then joined, then
  killed if they ignore it.

Per-worker stats arrive on heartbeats and are mirrored into the
:mod:`repro.obs` registry with a ``worker`` label, which is how ``/metrics``
aggregates the pool when :class:`~repro.serving.server.ServingServer` hosts
the fleet (the manager implements its service protocol).
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import uuid
from collections import deque
from typing import Any, AsyncIterator, Deque, Dict, Iterator, List, Optional, Set, Union

from repro.nn.embedding import check_prompt, check_request
from repro.obs import MetricsRegistry, monotonic
from repro.obs.metrics import get_registry
from repro.serving.fleet.config import (
    DECODE_ENTRYPOINT,
    EXPERIMENT_ENTRYPOINT,
    FleetConfig,
    WorkerConfig,
)
from repro.serving.fleet.exchange import TransportClosed, WorkerHandle, create_transport
from repro.serving.requests import GenerationRequest, GenerationResult, RequestError
from repro.utils.logging import get_logger

logger = get_logger("serving.fleet.manager")

_DONE = object()


class _Entry:
    """One in-flight generation request, as the manager tracks it."""

    def __init__(self, request: GenerationRequest, fault: Optional[str]) -> None:
        self.request = request
        self.fault = fault  # injected crash point; consumed on first dispatch
        self.tokens: List[int] = []
        self.queue: "queue.Queue[Any]" = queue.Queue()
        self.done = threading.Event()
        self.result: Optional[GenerationResult] = None
        self.error: Optional[str] = None
        self.worker_id: Optional[str] = None
        self.redispatches = 0
        self.submitted_at = monotonic()
        self.first_token_at: Optional[float] = None


class _Job:
    """One in-flight experiment payload."""

    def __init__(self, job_id: str, payload: Any, fault: Optional[str]) -> None:
        self.job_id = job_id
        self.payload = payload
        self.fault = fault
        self.done = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.error_kind = "internal"
        self.worker_id: Optional[str] = None
        self.redispatches = 0


class _WorkerState:
    """Supervision record for one worker slot (survives restarts)."""

    def __init__(self, worker_id: str, role: str) -> None:
        self.worker_id = worker_id
        self.role = role
        self.handle: Optional[WorkerHandle] = None
        self.thread: Optional[threading.Thread] = None
        self.ready = threading.Event()
        self.alive = False
        self.last_seen = monotonic()
        self.stats: Dict[str, float] = {}
        self.inflight: Set[str] = set()
        self.restarts = 0
        self.pid: Optional[int] = None
        self.max_seq_len = 0
        self.model_max_seq_len = 0
        self.vocab_size = 0
        self.generation = 0  # bumped per relaunch; stale receiver threads exit


class FleetStream:
    """Token stream of one fleet request (thread-safe).

    Iterating yields tokens as workers produce them — across worker deaths
    and re-dispatches, without duplicates.  ``for`` blocks the calling
    thread; ``async for`` pulls each token on the loop's default executor.
    :meth:`result` joins the request.
    """

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    @property
    def request_id(self) -> str:
        return self._entry.request.request_id

    @property
    def finish_reason(self) -> Optional[str]:
        return self._entry.result.finish_reason if self._entry.result is not None else None

    def __iter__(self) -> Iterator[int]:
        while (token := self._token(self._entry.queue.get())) is not None:
            yield token

    async def __aiter__(self) -> AsyncIterator[int]:
        while (token := self._token(await asyncio.to_thread(self._entry.queue.get))) is not None:
            yield token

    def _token(self, item: Any) -> Optional[int]:
        """A pulled token, or ``None`` once the stream ended; raises if the request failed."""
        if item is _DONE:
            if self._entry.error is not None:
                raise RuntimeError(self._entry.error)
            return None
        return int(item)

    def result(self, timeout: Optional[float] = None) -> GenerationResult:
        if not self._entry.done.wait(timeout):
            raise TimeoutError(f"request {self.request_id} did not finish within {timeout}s")
        if self._entry.error is not None:
            raise RuntimeError(self._entry.error)
        assert self._entry.result is not None  # done + no error => result set
        return self._entry.result


class FleetManager:
    """Launch, route to, supervise, and drain a fleet of serving workers."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config if config is not None else FleetConfig()
        self.registry = registry if registry is not None else get_registry()
        self._transport = create_transport(self.config.transport,
                                           start_method=self.config.start_method)
        self._lock = threading.RLock()
        self._workers: Dict[str, _WorkerState] = {}
        self._entries: Dict[str, _Entry] = {}
        self._jobs: Dict[str, _Job] = {}
        self._pending: Deque[Union[_Entry, _Job]] = deque()
        self._ids = itertools.count()
        self._started = False
        self._stopping = False
        self._started_at = 0.0
        # ----------------------------------------------------- obs wiring
        reg = self.registry
        self._c_requests = reg.counter("fleet_requests_total")
        self._c_completed = reg.counter("fleet_requests_completed_total")
        self._c_failed = reg.counter("fleet_requests_failed_total")
        self._c_redispatched = reg.counter("fleet_requests_redispatched_total")
        self._c_experiments = reg.counter("fleet_experiments_total")
        self._c_deaths = reg.counter("fleet_worker_deaths_total")
        self._c_restarts = reg.counter("fleet_worker_restarts_total")
        self._h_ttft = reg.histogram("fleet_ttft_seconds")
        reg.register_collector(self._collect_gauges)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "FleetManager":
        """Launch every worker and block until the fleet reports ready."""
        with self._lock:
            if self._started:
                raise RuntimeError("fleet already started")
            self._started = True
            self._started_at = monotonic()
        for index in range(self.config.decode_workers):
            self._launch(_WorkerState(f"decode-{index}", "decode"))
        for index in range(self.config.experiment_workers):
            self._launch(_WorkerState(f"experiment-{index}", "experiment"))
        deadline = monotonic() + self.config.start_timeout_s
        for state in list(self._workers.values()):
            remaining = deadline - monotonic()
            if remaining <= 0 or not state.ready.wait(remaining):
                self.stop(drain=False)
                raise TimeoutError(
                    f"worker {state.worker_id} did not become ready within "
                    f"{self.config.start_timeout_s}s"
                )
        return self

    def __enter__(self) -> "FleetManager":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def started(self) -> bool:
        return self._started and not self._stopping

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the fleet; with ``drain`` let in-flight work finish first."""
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
        if drain:
            deadline = monotonic() + (timeout if timeout is not None else self.config.drain_timeout_s)
            poll = threading.Event()
            while monotonic() < deadline:
                with self._lock:
                    if not self._entries and not self._jobs and not self._pending:
                        break
                poll.wait(0.01)
        with self._lock:
            states = list(self._workers.values())
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            try:
                handle.mailbox.send_json({"type": "stop"})
            except TransportClosed:
                pass
        for state in states:
            handle = state.handle
            if handle is None:
                continue
            handle.join(2.0)
            if handle.alive():
                handle.kill()
                handle.join(2.0)
            handle.mailbox.close()
        for state in states:
            if state.thread is not None:
                state.thread.join(2.0)
        # Anything still outstanding did not drain: fail it explicitly.
        with self._lock:
            leftovers = list(self._entries.values()) + list(self._pending)
            self._pending.clear()
        for item in leftovers:
            if isinstance(item, _Entry):
                self._fail_entry(item, "fleet stopped before the request finished")
            else:
                self._fail_job(item, "fleet stopped before the experiment finished", "internal")
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._fail_job(job, "fleet stopped before the experiment finished", "internal")

    # -------------------------------------------------------------- launching
    def _launch(self, state: _WorkerState) -> None:
        entrypoint = DECODE_ENTRYPOINT if state.role == "decode" else EXPERIMENT_ENTRYPOINT
        worker_config = WorkerConfig(
            worker_id=state.worker_id,
            role=state.role,
            spec=self.config.worker,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            allow_fault_injection=self.config.allow_fault_injection,
        )
        with self._lock:
            state.generation += 1
            state.ready.clear()
            state.alive = True
            state.last_seen = monotonic()
            state.handle = self._transport.launch(
                entrypoint, worker_config.to_json(), name=f"fleet-{state.worker_id}"
            )
            state.pid = state.handle.pid
            state.thread = threading.Thread(
                target=self._recv_loop, args=(state, state.generation),
                name=f"fleet-recv-{state.worker_id}", daemon=True,
            )
            self._workers[state.worker_id] = state
        state.thread.start()

    # ------------------------------------------------------------- reception
    def _recv_loop(self, state: _WorkerState, generation: int) -> None:
        handle = state.handle
        assert handle is not None  # _launch set it before starting this thread
        poll = min(self.config.heartbeat_interval_s, 0.1)
        while True:
            if state.generation != generation:
                return  # a relaunch superseded this receiver
            try:
                message = handle.mailbox.recv_json(timeout=poll)
            except TransportClosed:
                self._on_worker_down(state, generation, "transport closed")
                return
            now = monotonic()
            if message is None:
                if not handle.alive():
                    self._on_worker_down(state, generation, "worker process died")
                    return
                if now - state.last_seen > self.config.heartbeat_timeout_s:
                    handle.kill()
                    self._on_worker_down(state, generation, "heartbeat timeout")
                    return
                continue
            state.last_seen = now
            try:
                self._handle_message(state, message)
            except Exception:  # pragma: no cover - defensive
                logger.exception("error handling %r from worker %s",
                                 message.get("type"), state.worker_id)

    def _handle_message(self, state: _WorkerState, message: Dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == "ready":
            with self._lock:
                state.pid = int(message.get("pid", 0)) or state.pid
                state.max_seq_len = int(message.get("max_seq_len", 0))
                state.model_max_seq_len = int(message.get("model_max_seq_len", 0))
                state.vocab_size = int(message.get("vocab_size", 0))
                state.ready.set()
            self._flush_pending()
        elif mtype == "heartbeat":
            stats = message.get("stats")
            if isinstance(stats, dict):
                state.stats = {str(k): float(v) for k, v in stats.items()}
        elif mtype == "token":
            self._on_token(state, message)
        elif mtype == "result":
            self._on_result(state, message)
        elif mtype == "error":
            self._on_error(state, message)
        elif mtype == "experiment_result":
            self._on_job_done(state, message, error=None)
        elif mtype == "experiment_error":
            self._on_job_done(state, message, error=str(message.get("error", "experiment failed")))
        elif mtype == "stopped":
            pass  # transport EOF follows; _on_worker_down handles bookkeeping
        else:
            logger.warning("unknown message type %r from worker %s", mtype, state.worker_id)

    def _on_token(self, state: _WorkerState, message: Dict[str, Any]) -> None:
        request_id = str(message.get("request_id", ""))
        index = int(message.get("index", -1))
        token = int(message.get("token", 0))
        with self._lock:
            entry = self._entries.get(request_id)
            if entry is None or entry.worker_id != state.worker_id:
                return  # stale frame from a superseded dispatch
            if index < len(entry.tokens):
                return  # duplicate of a token already delivered pre-redispatch
            entry.tokens.append(token)
            if entry.first_token_at is None:
                entry.first_token_at = monotonic()
                self._h_ttft.observe(entry.first_token_at - entry.submitted_at)
        entry.queue.put(token)

    def _on_result(self, state: _WorkerState, message: Dict[str, Any]) -> None:
        request_id = str(message.get("request_id", ""))
        with self._lock:
            entry = self._entries.pop(request_id, None)
            if entry is None or entry.worker_id != state.worker_id:
                if entry is not None:
                    self._entries[request_id] = entry  # not ours: put it back
                return
            state.inflight.discard(request_id)
        raw = message.get("result")
        try:
            result = GenerationResult.from_dict(raw if isinstance(raw, dict) else {})
        except RequestError as exc:
            self._fail_entry(entry, f"worker returned a malformed result: {exc}")
            return
        # The manager's token log is authoritative across re-dispatches; on a
        # clean single dispatch it equals the worker's sequence exactly.
        timings = {
            "total_s": monotonic() - entry.submitted_at,
            "redispatches": float(entry.redispatches),
        }
        if entry.first_token_at is not None:
            timings["ttft_s"] = entry.first_token_at - entry.submitted_at
        final = GenerationResult(
            request_id=result.request_id, prompt=result.prompt,
            tokens=tuple(entry.tokens) if entry.tokens else result.tokens,
            finish_reason=result.finish_reason,
            queued_seconds=result.queued_seconds, decode_seconds=result.decode_seconds,
            timings=timings,
        )
        entry.result = final
        self._c_completed.inc()
        entry.done.set()
        entry.queue.put(_DONE)

    def _on_error(self, state: _WorkerState, message: Dict[str, Any]) -> None:
        request_id = str(message.get("request_id", ""))
        with self._lock:
            entry = self._entries.pop(request_id, None)
            if entry is None:
                return
            state.inflight.discard(request_id)
        self._fail_entry(entry, str(message.get("error", "worker error")))

    def _on_job_done(self, state: _WorkerState, message: Dict[str, Any],
                     error: Optional[str]) -> None:
        job_id = str(message.get("job_id", ""))
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return
            state.inflight.discard(job_id)
        if error is not None:
            self._fail_job(job, error, str(message.get("kind", "internal")))
            return
        result = message.get("result")
        job.result = result if isinstance(result, dict) else {"result": result}
        job.done.set()

    # ----------------------------------------------------------- supervision
    def _on_worker_down(self, state: _WorkerState, generation: int, reason: str) -> None:
        with self._lock:
            if state.generation != generation:
                return  # already superseded
            state.alive = False
            state.ready.clear()
            handle = state.handle
            orphan_ids = list(state.inflight)
            state.inflight.clear()
            stopping = self._stopping
            restart = not stopping and state.restarts < self.config.max_restarts
            if restart:
                state.restarts += 1
        if handle is not None:
            handle.kill()
            handle.mailbox.close()
        if stopping:
            return
        self._c_deaths.inc()
        logger.warning("worker %s down (%s); %d request(s) in flight%s",
                       state.worker_id, reason, len(orphan_ids),
                       ", restarting" if restart else "")
        if restart:
            self._c_restarts.inc()
            self._launch(state)
        orphans: List[Union[_Entry, _Job]] = []
        with self._lock:
            for orphan_id in orphan_ids:
                if orphan_id in self._entries:
                    orphans.append(self._entries[orphan_id])
                elif orphan_id in self._jobs:
                    orphans.append(self._jobs[orphan_id])
        for orphan in orphans:
            self._redispatch(orphan)

    def _redispatch(self, item: Union[_Entry, _Job]) -> None:
        item.redispatches += 1
        item.worker_id = None
        if item.redispatches > self.config.max_redispatch:
            if isinstance(item, _Entry):
                with self._lock:
                    self._entries.pop(item.request.request_id, None)
                self._fail_entry(
                    item, f"request re-dispatched {self.config.max_redispatch} times "
                          f"and its worker died again")
            else:
                with self._lock:
                    self._jobs.pop(item.job_id, None)
                self._fail_job(item, "experiment worker died repeatedly", "internal")
            return
        self._c_redispatched.inc()
        # A crashed worker cannot have delivered the fault-free tail, and the
        # injected fault must not follow the request to its new worker.
        item.fault = None
        self._dispatch(item)

    # -------------------------------------------------------------- dispatch
    def _live_workers(self, role: str) -> List[_WorkerState]:
        return [
            state for state in self._workers.values()
            if state.role == role and state.alive and state.ready.is_set()
        ]

    def _pick_worker(self, item: Union[_Entry, _Job]) -> Optional[_WorkerState]:
        """The live worker of the item's role with the fewest in-flight items."""
        role = "decode" if isinstance(item, _Entry) else "experiment"
        return min(self._live_workers(role), key=lambda s: (len(s.inflight), s.worker_id), default=None)

    def _dispatch(self, item: Union[_Entry, _Job]) -> None:
        with self._lock:
            target = self._pick_worker(item)
            if target is None:
                if item not in self._pending:
                    self._pending.append(item)
                return
            if isinstance(item, _Entry):
                item_id = item.request.request_id
                message: Dict[str, Any] = {"type": "generate", "request": item.request.to_dict()}
            else:
                item_id = item.job_id
                message = {"type": "experiment", "job_id": item_id, "payload": item.payload}
            if item.fault is not None:
                message["fault"] = item.fault
                item.fault = None
            target.inflight.add(item_id)
            item.worker_id = target.worker_id
            handle = target.handle
        assert handle is not None  # live workers always carry a handle
        try:
            handle.mailbox.send_json(message)
        except TransportClosed:
            with self._lock:
                target.inflight.discard(item_id)
                item.worker_id = None
            # The receiver thread will declare the worker down; retry now on
            # whatever is still alive (or park in the pending queue).
            self._dispatch(item)

    def _flush_pending(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                item = self._pending.popleft()
            self._dispatch(item)

    # ------------------------------------------------------------ public API
    def stream(self, request: GenerationRequest, *, fault: Optional[str] = None) -> FleetStream:
        """Route a request to a decode worker; returns its token stream.

        Raises :class:`RequestError` when the prompt and its budget cannot
        fit a worker's KV slot, or the prompt holds an id outside the
        workers' vocabulary.
        """
        if fault is not None and not self.config.allow_fault_injection:
            raise ValueError("fault injection requires FleetConfig.allow_fault_injection=True")
        with self._lock:
            if not self._started or self._stopping:
                raise RuntimeError("fleet is not running")
            if not request.request_id:
                request = GenerationRequest.from_dict(
                    request.to_dict() | {"request_id": f"fleet-{next(self._ids)}"}
                )
            decoders = [s for s in self._workers.values() if s.role == "decode" and s.max_seq_len]
            if decoders:
                # The workers' own admission rules, applied before dispatch so
                # a request they would refuse is refused instead of failing
                # mid-stream.
                try:
                    check_prompt(request.prompt, min(s.vocab_size for s in decoders))
                    check_request(
                        len(request.prompt),
                        request.max_new_tokens,
                        max(s.max_seq_len for s in decoders),
                        max(s.model_max_seq_len for s in decoders),
                    )
                except ValueError as exc:
                    raise RequestError(str(exc)) from None
            entry = _Entry(request, fault)
            self._entries[request.request_id] = entry
        self._c_requests.inc()
        self._dispatch(entry)
        return FleetStream(entry)

    def generate(self, request: GenerationRequest, timeout: Optional[float] = None) -> GenerationResult:
        """Blocking convenience: stream and join one request."""
        return self.stream(request).result(timeout)

    def cancel(self, request_id: str) -> bool:
        """Cancel an in-flight request; returns whether it was known."""
        with self._lock:
            entry = self._entries.get(request_id)
            if entry is None:
                return False
            if entry in self._pending:
                self._pending.remove(entry)
                self._entries.pop(request_id, None)
                local = True
            else:
                local = False
                worker = self._workers.get(entry.worker_id or "")
        if local:
            entry.result = GenerationResult(
                request_id=request_id, prompt=entry.request.prompt,
                tokens=tuple(entry.tokens), finish_reason="cancelled",
            )
            entry.done.set()
            entry.queue.put(_DONE)
            return True
        if worker is not None and worker.handle is not None:
            try:
                worker.handle.mailbox.send_json({"type": "cancel", "request_id": request_id})
            except TransportClosed:
                pass  # the worker is dying; re-dispatch will resolve the entry
        return True

    def experiment(self, payload: Union[str, Dict[str, Any]],
                   timeout: Optional[float] = None, *, fault: Optional[str] = None) -> Dict[str, Any]:
        """Run an experiment payload on the experiment worker class."""
        if fault is not None and not self.config.allow_fault_injection:
            raise ValueError("fault injection requires FleetConfig.allow_fault_injection=True")
        with self._lock:
            if not self._started or self._stopping:
                raise RuntimeError("fleet is not running")
            if not any(s.role == "experiment" for s in self._workers.values()):
                raise RequestError(
                    "this fleet has no experiment workers "
                    "(FleetConfig.experiment_workers == 0)"
                )
            job = _Job(f"job-{uuid.uuid4().hex[:12]}", payload, fault)
            self._jobs[job.job_id] = job
        self._c_experiments.inc()
        self._dispatch(job)
        if not job.done.wait(timeout):
            raise TimeoutError(f"experiment {job.job_id} did not finish within {timeout}s")
        if job.error is not None:
            if job.error_kind == "request":
                raise RequestError(job.error)
            raise RuntimeError(job.error)
        assert job.result is not None  # done + no error => result set
        return job.result

    # ------------------------------------------------------------ resolution
    def _fail_entry(self, entry: _Entry, error: str) -> None:
        self._c_failed.inc()
        entry.error = error
        entry.done.set()
        entry.queue.put(_DONE)

    def _fail_job(self, job: _Job, error: str, kind: str) -> None:
        job.error = error
        job.error_kind = kind
        job.done.set()

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the fleet and every worker."""
        with self._lock:
            workers = {
                state.worker_id: {
                    "role": state.role,
                    "alive": state.alive,
                    "ready": state.ready.is_set(),
                    "pid": state.pid,
                    "restarts": state.restarts,
                    "inflight": len(state.inflight),
                    **state.stats,
                }
                for state in self._workers.values()
            }
            return {
                "transport": self.config.transport,
                "decode_workers": self.config.decode_workers,
                "experiment_workers": self.config.experiment_workers,
                "workers_alive": sum(1 for s in self._workers.values() if s.alive),
                "queue_depth": len(self._pending),
                "inflight": len(self._entries) + len(self._jobs),
                "uptime_s": monotonic() - self._started_at if self._started else 0.0,
                "requests_submitted": self._c_requests.value,
                "requests_completed": self._c_completed.value,
                "requests_failed": self._c_failed.value,
                "requests_redispatched": self._c_redispatched.value,
                "experiments": self._c_experiments.value,
                "worker_deaths": self._c_deaths.value,
                "worker_restarts": self._c_restarts.value,
                "workers": workers,
            }

    def _collect_gauges(self) -> None:
        registry = self.registry
        with self._lock:
            states = list(self._workers.values())
            pending = len(self._pending)
        registry.gauge("fleet_workers_alive").set(sum(1 for s in states if s.alive))
        registry.gauge("fleet_queue_depth").set(pending)
        for state in states:
            labels = {"worker": state.worker_id}
            registry.gauge("fleet_worker_up", labels=labels).set(
                1.0 if state.alive and state.ready.is_set() else 0.0
            )
            registry.gauge("fleet_worker_inflight", labels=labels).set(len(state.inflight))
            registry.gauge("fleet_worker_restarts", labels=labels).set(state.restarts)
            stats = state.stats
            registry.gauge("fleet_worker_requests_total", labels=labels).set(
                stats.get("requests_total", 0.0)
            )
            registry.gauge("fleet_worker_tokens_total", labels=labels).set(
                stats.get("tokens_total", 0.0)
            )
            registry.gauge("fleet_worker_busy_seconds", labels=labels).set(
                stats.get("busy_seconds", 0.0)
            )
            registry.gauge("fleet_worker_experiments_total", labels=labels).set(
                stats.get("experiments_total", 0.0)
            )


__all__ = ["FleetManager", "FleetStream"]
