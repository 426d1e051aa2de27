"""Worker entrypoints: the code that runs inside fleet worker processes.

Both entrypoints are module-level callables addressed by
``"module:function"`` strings (reprolint RL008), take ``(mailbox,
config_json)`` and speak only JSON messages:

* :func:`decode_worker_main` — owns a calibrated
  :class:`~repro.pipeline.session.SparseSession` (seeded via
  ``share_calibration()``) and hosts the engine's decode driver,
  :class:`~repro.engine.inference.ContinuousDecoder`, at width 1; queues
  ``generate`` messages into it and streams each request token-by-token
  (``token`` frames, then a terminal ``result`` carrying a
  :class:`~repro.serving.requests.GenerationResult` dict).  A request's
  ``timeout_s`` counts from the worker's receipt of its ``generate`` frame.
* :func:`experiment_worker_main` — owns its own session and serves
  ``experiment`` messages through
  :func:`~repro.serving.requests.run_experiment_payload`, so experiments run
  on a separate worker class and can never block decode.

Workers push a ``heartbeat`` frame (with a stats snapshot) every
``heartbeat_interval_s`` from a side thread, read the mailbox between decode
passes (blocking on it only while the driver is idle), and honor a gated
fault-injection hook (``fault`` key on work messages, only when the config
allows it) so CI can kill a worker mid-request deterministically.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from repro.engine.inference import ContinuousBatch, ContinuousDecoder, DecodeRequest
from repro.obs import monotonic
from repro.serving.fleet.config import WorkerConfig
from repro.serving.fleet.exchange import Mailbox, TransportClosed
from repro.serving.requests import (
    GenerationRequest,
    GenerationResult,
    RequestError,
    run_experiment_payload,
)
from repro.utils.logging import get_logger

logger = get_logger("serving.fleet.worker")

FAULT_BEFORE_PREFILL = "before-prefill"
FAULT_BEFORE_RUN = "before-run"
_FAULT_AFTER_TOKEN = "after-token-"

#: KV slots a decode worker decodes concurrently.  Fleet workers do not
#: batch yet; the driver they host runs at this width.
DECODE_WIDTH = 1


class _WorkerStats:
    """Thread-safe counters mirrored to the manager via heartbeats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total = 0
        self.tokens_total = 0
        self.busy_seconds = 0.0
        self.experiments_total = 0

    def record(self, *, requests: int = 0, tokens: int = 0, busy: float = 0.0,
               experiments: int = 0) -> None:
        with self._lock:
            self.requests_total += requests
            self.tokens_total += tokens
            self.busy_seconds += busy
            self.experiments_total += experiments

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "requests_total": float(self.requests_total),
                "tokens_total": float(self.tokens_total),
                "busy_seconds": self.busy_seconds,
                "experiments_total": float(self.experiments_total),
            }


class _HeartbeatSender(threading.Thread):
    """Pushes ``heartbeat`` frames so a busy-but-healthy worker stays alive
    in the manager's books even while its main thread is deep in a forward."""

    def __init__(self, mailbox: Mailbox, config: WorkerConfig, stats: _WorkerStats) -> None:
        super().__init__(name=f"{config.worker_id}-heartbeat", daemon=True)
        self._mailbox = mailbox
        self._config = config
        self._stats = stats
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self._config.heartbeat_interval_s):
            try:
                self._mailbox.send_json({
                    "type": "heartbeat",
                    "worker_id": self._config.worker_id,
                    "stats": self._stats.snapshot(),
                })
            except TransportClosed:
                return

    def stop(self) -> None:
        self._stop.set()


def _maybe_crash(fault: Optional[str], point: str, mailbox: Mailbox) -> None:
    if fault == point:
        logger.warning("fault injection: dying at %r", point)
        mailbox.hard_exit()


class _Work(DecodeRequest):
    """One ``generate`` message as the worker's driver serves it."""

    __slots__ = ("request", "fault", "received_at", "admitted_at")

    def __init__(self, request: GenerationRequest, fault: Optional[str]) -> None:
        received_at = monotonic()
        super().__init__(
            request.request_id,
            request.prompt,
            request.max_new_tokens,
            temperature=request.temperature,
            seed=request.seed,
            deadline=received_at + request.timeout_s if request.timeout_s is not None else None,
            cache_prefix=request.cache_prefix,
        )
        self.request = request
        self.fault = fault
        self.received_at = received_at
        self.admitted_at: Optional[float] = None


def _send_result(mailbox: Mailbox, work: _Work, stats: _WorkerStats) -> None:
    assert work.finish_reason is not None  # only finished work has a result
    now = monotonic()
    started = work.admitted_at if work.admitted_at is not None else now
    stats.record(requests=1, tokens=len(work.tokens))
    result = GenerationResult(
        request_id=work.key, prompt=work.request.prompt, tokens=tuple(work.tokens),
        finish_reason=work.finish_reason, queued_seconds=started - work.received_at,
        decode_seconds=now - started,
    )
    mailbox.send_json({"type": "result", "request_id": work.key, "result": result.to_dict()})


def _send_served(mailbox: Mailbox, work: _Work, stats: _WorkerStats) -> None:
    """Send the token the driver just sampled for ``work``, or its failure."""
    if work.error is not None:
        kind = "request" if isinstance(work.error, ValueError) else "internal"
        mailbox.send_json({
            "type": "error", "request_id": work.key,
            "error": f"{type(work.error).__name__}: {work.error}", "kind": kind,
        })
        return
    index = len(work.tokens) - 1
    mailbox.send_json({
        "type": "token", "request_id": work.key, "index": index, "token": work.tokens[-1],
    })
    if mailbox.aborted:
        raise TransportClosed("worker killed")
    _maybe_crash(work.fault, f"{_FAULT_AFTER_TOKEN}{index}", mailbox)
    if work.finish_reason is not None:
        _send_result(mailbox, work, stats)


def _decode_pass(decoder: ContinuousDecoder[_Work], mailbox: Mailbox, stats: _WorkerStats) -> None:
    """Retire overdue work, then one admission and one decode step."""
    for work in decoder.overdue(monotonic()):
        decoder.finish(work, "timeout")
        _send_result(mailbox, work, stats)
    if decoder.waiting and not decoder.active:
        # At width 1 a free slot means the head of the FCFS queue is next.
        _maybe_crash(decoder.waiting[0].fault, FAULT_BEFORE_PREFILL, mailbox)
    started = monotonic()
    for work in decoder.admit():
        work.admitted_at = started
        _send_served(mailbox, work, stats)
    for work in decoder.step():
        _send_served(mailbox, work, stats)
    stats.record(busy=monotonic() - started)


def decode_worker_main(mailbox: Mailbox, config_json: str) -> None:
    """Entrypoint of a decode worker: build session, calibrate, serve."""
    config = WorkerConfig.from_json(config_json)
    from repro.serving.fleet.config import build_worker_session

    base = build_worker_session(config.spec)
    base.calibrate()
    session = base.share_calibration()
    session.calibrate()
    assert session.engine is not None  # built with a model above
    decoder: ContinuousDecoder[_Work] = ContinuousDecoder(ContinuousBatch.from_engine(
        session.engine, max_batch_size=DECODE_WIDTH, max_seq_len=config.spec.max_seq_len
    ))
    stats = _WorkerStats()
    heartbeat = _HeartbeatSender(mailbox, config, stats)
    heartbeat.start()
    try:
        mailbox.send_json({
            "type": "ready", "worker_id": config.worker_id, "role": "decode",
            "pid": os.getpid(), "max_seq_len": int(decoder.batch.max_seq_len),
            "model_max_seq_len": int(decoder.batch.model.config.max_seq_len),
            "vocab_size": int(decoder.batch.model.config.vocab_size),
        })
        while True:
            # Block on the mailbox only while there is nothing to decode.
            message = mailbox.recv_json(timeout=None if decoder.idle else 0)
            if mailbox.aborted:
                return
            if message is None:
                _decode_pass(decoder, mailbox, stats)
                continue
            mtype = message.get("type")
            if mtype == "stop":
                mailbox.send_json({"type": "stopped", "worker_id": config.worker_id})
                return
            if mtype == "generate":
                fault = (str(message["fault"])
                         if config.allow_fault_injection and message.get("fault") else None)
                work = _Work(GenerationRequest.from_dict(message["request"]), fault)
                try:
                    decoder.submit(work)
                except ValueError as exc:
                    work.error = exc
                    _send_served(mailbox, work, stats)
            elif mtype == "cancel":
                found = decoder.find(str(message.get("request_id", "")))
                if found is not None:
                    decoder.finish(found, "cancelled")
                    _send_result(mailbox, found, stats)
            elif mtype == "ping":
                mailbox.send_json({"type": "heartbeat", "worker_id": config.worker_id,
                                   "stats": stats.snapshot()})
            else:
                logger.warning("decode worker %s ignoring %r message", config.worker_id, mtype)
    except TransportClosed:
        return
    finally:
        heartbeat.stop()


def experiment_worker_main(mailbox: Mailbox, config_json: str) -> None:
    """Entrypoint of an experiment worker: serve ``/experiment`` payloads."""
    config = WorkerConfig.from_json(config_json)
    from repro.serving.fleet.config import build_worker_session

    session = build_worker_session(config.spec)
    session.calibrate()
    stats = _WorkerStats()
    heartbeat = _HeartbeatSender(mailbox, config, stats)
    heartbeat.start()
    try:
        mailbox.send_json({
            "type": "ready", "worker_id": config.worker_id, "role": "experiment",
            "pid": os.getpid(), "max_seq_len": 0,
        })
        while True:
            message = mailbox.recv_json(timeout=None)
            if message is None:
                continue
            if mailbox.aborted:
                return
            mtype = message.get("type")
            if mtype == "stop":
                mailbox.send_json({"type": "stopped", "worker_id": config.worker_id})
                return
            if mtype == "experiment":
                job_id = str(message.get("job_id", ""))
                fault = (str(message["fault"])
                         if config.allow_fault_injection and message.get("fault") else None)
                _maybe_crash(fault, FAULT_BEFORE_RUN, mailbox)
                started = monotonic()
                try:
                    payload = run_experiment_payload(message["payload"], session=session)
                except Exception as exc:
                    kind = "request" if isinstance(exc, (RequestError, ValueError)) else "internal"
                    mailbox.send_json({
                        "type": "experiment_error", "job_id": job_id,
                        "error": f"{type(exc).__name__}: {exc}", "kind": kind,
                    })
                else:
                    stats.record(experiments=1, busy=monotonic() - started)
                    mailbox.send_json({
                        "type": "experiment_result", "job_id": job_id, "result": payload,
                    })
            else:
                logger.warning("experiment worker %s ignoring %r message", config.worker_id, mtype)
    except TransportClosed:
        return
    finally:
        heartbeat.stop()


__all__ = [
    "FAULT_BEFORE_PREFILL",
    "FAULT_BEFORE_RUN",
    "decode_worker_main",
    "experiment_worker_main",
]
