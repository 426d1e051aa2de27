"""Request/response payloads of the serving layer.

:class:`GenerationRequest` and :class:`GenerationResult` are the wire types
of the continuous-batching scheduler and the HTTP server: plain dataclasses
with strict validation and lossless JSON round-trips.  The serving layer also
accepts full :class:`~repro.pipeline.spec.ExperimentSpec` payloads and routes
them through :func:`~repro.pipeline.runner.run_experiment`
(:func:`run_experiment_payload`).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from repro.pipeline.runner import ResultCache, run_experiment
from repro.pipeline.session import SparseSession
from repro.pipeline.spec import ExperimentSpec

_PayloadT = TypeVar("_PayloadT")


class RequestError(ValueError):
    """A serving payload is malformed; the message says how to fix it."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _from_mapping(cls: Type[_PayloadT], data: Mapping[str, Any], what: str) -> _PayloadT:
    """Build a payload dataclass from a mapping, rejecting unknown/missing keys."""
    if not isinstance(data, Mapping):
        raise RequestError(f"{what} payload must be a mapping, got {type(data).__name__}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - field_names)
    if unknown:
        raise RequestError(
            f"{what} payload has unknown key(s) {unknown}; valid keys: {sorted(field_names)}"
        )
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    missing = sorted(required - set(data))
    if missing:
        raise RequestError(f"{what} payload is missing required key(s) {missing}")
    return cls(**dict(data))


@dataclasses.dataclass(frozen=True)
class GenerationRequest:
    """One generation job: a token-id prompt plus decoding knobs.

    ``request_id`` is assigned by the scheduler when left empty, and
    ``arrival_time`` is stamped at submission when left at ``0.0``.  ``seed``
    feeds the per-request sampling RNG (irrelevant for greedy decoding,
    ``temperature == 0``, which is also the bit-reproducible mode).

    Lifecycle knobs: ``timeout_s`` is a wall-clock budget measured from
    submission to the scheduler, or from a fleet decode worker's receipt of
    the request — a request past its deadline is retired (queued or
    mid-decode, freeing its KV slot immediately) with
    ``finish_reason="timeout"`` and whatever tokens it produced.
    ``cache_prefix=False`` opts this request out of the scheduler's prefix
    cache (no shared-head reuse, no publication of its prompt).
    """

    prompt: Tuple[int, ...]
    max_new_tokens: int = 16
    temperature: float = 0.0
    request_id: str = ""
    arrival_time: float = 0.0
    seed: Optional[int] = None
    timeout_s: Optional[float] = None
    cache_prefix: bool = True

    def __post_init__(self) -> None:
        try:
            tokens = tuple(int(t) for t in self.prompt)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"request.prompt must be a sequence of integer token ids: {exc}") from exc
        _check(len(tokens) > 0, "request.prompt must be a non-empty list of token ids")
        _check(all(t >= 0 for t in tokens), "request.prompt token ids must be non-negative")
        object.__setattr__(self, "prompt", tokens)
        try:
            max_new_tokens = int(self.max_new_tokens)
            temperature = float(self.temperature)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"request.max_new_tokens and request.temperature must be numeric: {exc}"
            ) from exc
        _check(max_new_tokens > 0, "request.max_new_tokens must be positive")
        object.__setattr__(self, "max_new_tokens", max_new_tokens)
        _check(temperature >= 0.0, "request.temperature must be non-negative")
        object.__setattr__(self, "temperature", temperature)
        if self.timeout_s is not None:
            try:
                timeout_s = float(self.timeout_s)
            except (TypeError, ValueError) as exc:
                raise RequestError(f"request.timeout_s must be numeric or null: {exc}") from exc
            _check(timeout_s > 0.0, "request.timeout_s must be positive (or null for no deadline)")
            object.__setattr__(self, "timeout_s", timeout_s)
        object.__setattr__(self, "cache_prefix", bool(self.cache_prefix))

    # ------------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self) | {"prompt": list(self.prompt)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GenerationRequest":
        return _from_mapping(cls, data, "generation request")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GenerationRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(f"generation request is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclasses.dataclass(frozen=True)
class GenerationResult:
    """The completed continuation of one :class:`GenerationRequest`.

    ``tokens`` holds only the *generated* continuation;
    :meth:`full_sequence` prepends the prompt.  Timing fields are filled by
    the scheduler: ``queued_seconds`` (arrival → first prefill) and
    ``decode_seconds`` (prefill start → last token).  When the scheduler runs
    with ``SchedulerConfig.trace_requests`` (the default), ``timings`` carries
    the request's condensed :meth:`~repro.obs.tracing.Trace.timings` summary —
    ``queue_s``, ``prefill_s``, ``ttft_s``, ``decode_s``,
    ``decode_tokens_per_s``, ``total_s`` — and is ``None`` otherwise.

    ``finish_reason`` says why generation stopped: ``"length"`` (the
    ``max_new_tokens`` budget completed), ``"timeout"`` (the request's
    ``timeout_s`` deadline passed — ``tokens`` holds the partial
    continuation), ``"cancelled"`` (explicitly cancelled, e.g. the
    streaming client disconnected), or ``"error"`` (the decode step for
    this request's batch raised; partial tokens are preserved).
    """

    request_id: str
    prompt: Tuple[int, ...]
    tokens: Tuple[int, ...]
    finish_reason: str = "length"
    queued_seconds: float = 0.0
    decode_seconds: float = 0.0
    timings: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", tuple(int(t) for t in self.prompt))
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if self.timings is not None:
            if not isinstance(self.timings, Mapping):
                raise RequestError(
                    f"result.timings must be a mapping or null, got {type(self.timings).__name__}"
                )
            object.__setattr__(
                self, "timings", {str(k): float(v) for k, v in self.timings.items()}
            )

    def full_sequence(self) -> np.ndarray:
        """Prompt + continuation as one int64 array (the ``generate`` layout)."""
        return np.asarray(self.prompt + self.tokens, dtype=np.int64)

    @property
    def n_generated(self) -> int:
        return len(self.tokens)

    # ------------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self) | {"prompt": list(self.prompt), "tokens": list(self.tokens)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GenerationResult":
        return _from_mapping(cls, data, "generation result")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GenerationResult":
        return cls.from_dict(json.loads(text))


def run_experiment_payload(
    payload: Union[str, Mapping[str, Any]],
    *,
    session: Optional[SparseSession] = None,
    include_dense: bool = False,
    result_cache: Union[None, bool, ResultCache] = None,
) -> Dict[str, Any]:
    """Route an :class:`ExperimentSpec` JSON payload through ``run_experiment``.

    ``payload`` is a spec mapping (or its JSON text); ``session`` reuses an
    already-prepared :class:`~repro.pipeline.session.SparseSession` (the
    scheduler passes a calibration-sharing copy of its own, so no model
    training happens per request).
    When a session is given, the spec's model must name the session's model —
    the rows are computed on the session's model, so a mismatched spec would
    silently return wrong-model results.
    Returns a JSON-safe ``{"spec": ..., "rows": ...}`` payload.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise RequestError(f"experiment payload is not valid JSON: {exc}") from exc
    spec = ExperimentSpec.from_dict(payload)
    if session is not None and session.model_name and spec.model.name != session.model_name:
        raise RequestError(
            f"spec.model.name='{spec.model.name}' does not match the serving session's "
            f"model '{session.model_name}'"
        )
    result = run_experiment(spec, session=session, include_dense=include_dense, result_cache=result_cache)
    return {"spec": spec.to_dict(), "rows": result.rows()}
