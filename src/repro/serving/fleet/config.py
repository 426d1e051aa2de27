"""Fleet configuration: the JSON dataclasses that cross the process boundary.

Everything a worker process needs to reconstruct its serving state travels as
JSON text (never pickle — reprolint RL008 enforces this): a
:class:`WorkerSpec` is the deterministic recipe for one worker's
:class:`~repro.pipeline.session.SparseSession` (same spec ⇒ bit-identical
session in every process, which is what makes crash re-dispatch safe under
greedy decoding), and a :class:`WorkerConfig` wraps the spec with the
launch-time identity the manager assigns.  :class:`FleetConfig` is the
manager-side shape of the whole fleet: worker counts, transport,
heartbeat/restart knobs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.pipeline.session import SparseSession
from repro.serving.requests import _from_mapping

TRANSPORTS: Tuple[str, ...] = ("inproc", "pipe")
WORKER_ROLES: Tuple[str, ...] = ("decode", "experiment")

#: Module-level importable entrypoints (RL008: a worker entrypoint must be a
#: ``"module:function"`` string so any start method — fork or spawn — can
#: resolve it by import, never by pickling a closure).
DECODE_ENTRYPOINT = "repro.serving.fleet.worker:decode_worker_main"
EXPERIMENT_ENTRYPOINT = "repro.serving.fleet.worker:experiment_worker_main"


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Deterministic recipe for one worker's serving session.

    Workers never receive live objects: each one rebuilds the model from the
    zoo (``model``, ``model_seed``), draws its calibration/eval token
    sequences from seeded RNGs, creates the sparsity method, calibrates once,
    and fans out via ``share_calibration()``.  Two processes given the same
    spec therefore decode token-identically, which is the contract the
    manager's crash re-dispatch relies on.
    """

    model: str = "tiny"
    model_seed: int = 0
    method: str = "dip"
    target_density: float = 0.5
    backend: Optional[str] = None
    max_seq_len: Optional[int] = None
    calibration_seed: int = 0
    calibration_sequences: int = 4
    calibration_seq_len: int = 16
    eval_seed: int = 1
    eval_sequences: int = 4
    eval_seq_len: int = 12

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("WorkerSpec.model must name a zoo model")
        if not self.method:
            raise ValueError("WorkerSpec.method must name a registered sparsity method")
        if not 0.0 < float(self.target_density) <= 1.0:
            raise ValueError("WorkerSpec.target_density must be in (0, 1]")
        for field in ("calibration_sequences", "calibration_seq_len", "eval_sequences", "eval_seq_len"):
            if int(getattr(self, field)) <= 0:
                raise ValueError(f"WorkerSpec.{field} must be positive")
        if self.max_seq_len is not None and int(self.max_seq_len) <= 1:
            raise ValueError("WorkerSpec.max_seq_len must leave room to decode")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerSpec":
        return _from_mapping(cls, data, "worker spec")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkerSpec":
        return cls.from_dict(json.loads(text))


def build_worker_session(spec: WorkerSpec) -> SparseSession:
    """Rebuild the session a :class:`WorkerSpec` describes (deterministic).

    Imports the model zoo lazily so the config module stays importable in the
    child before numpy-heavy modules load.
    """
    from repro.nn.model_zoo import build_model

    model = build_model(spec.model, seed=spec.model_seed)
    model.eval()
    vocab = model.config.vocab_size
    calibration = np.random.default_rng(spec.calibration_seed).integers(
        0, vocab, size=(spec.calibration_sequences, spec.calibration_seq_len)
    )
    evaluation = np.random.default_rng(spec.eval_seed).integers(
        0, vocab, size=(spec.eval_sequences, spec.eval_seq_len)
    )
    return SparseSession(
        model,
        spec.method,
        model_name=spec.model,
        calibration_sequences=calibration,
        eval_sequences=evaluation,
        backend=spec.backend,
    )


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Launch-time identity + recipe handed to a worker entrypoint as JSON."""

    worker_id: str
    role: str
    spec: WorkerSpec = dataclasses.field(default_factory=WorkerSpec)
    heartbeat_interval_s: float = 0.25
    allow_fault_injection: bool = False

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("WorkerConfig.worker_id must be non-empty")
        if self.role not in WORKER_ROLES:
            raise ValueError(f"WorkerConfig.role must be one of {WORKER_ROLES}, got {self.role!r}")
        if isinstance(self.spec, Mapping):
            object.__setattr__(self, "spec", WorkerSpec.from_dict(self.spec))
        if float(self.heartbeat_interval_s) <= 0:
            raise ValueError("WorkerConfig.heartbeat_interval_s must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerConfig":
        return _from_mapping(cls, data, "worker config")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkerConfig":
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Shape and policies of a :class:`~repro.serving.fleet.manager.FleetManager`.

    * ``decode_workers`` / ``experiment_workers`` — pool sizes per worker
      class.  Experiment workers are a separate class so a heavy
      ``/experiment`` job can never block decode.
    * ``transport`` — ``"inproc"`` (threads + queues, deterministic tests) or
      ``"pipe"`` (``multiprocessing`` processes + pipes, real isolation).
    * ``heartbeat_interval_s`` / ``heartbeat_timeout_s`` — workers push a
      stats heartbeat every interval; a worker silent for longer than the
      timeout (no heartbeat, no tokens) is declared dead and restarted.
    * ``max_restarts`` — per worker slot; ``max_redispatch`` — per request.
    * ``allow_fault_injection`` — gates the test-only crash hooks carried on
      generate messages (``fault="before-prefill"`` etc.).
    """

    worker: WorkerSpec = dataclasses.field(default_factory=WorkerSpec)
    decode_workers: int = 2
    experiment_workers: int = 1
    transport: str = "inproc"
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 10.0
    max_restarts: int = 3
    max_redispatch: int = 2
    drain_timeout_s: float = 30.0
    start_timeout_s: float = 120.0
    start_method: Optional[str] = None
    allow_fault_injection: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.worker, Mapping):
            object.__setattr__(self, "worker", WorkerSpec.from_dict(self.worker))
        if int(self.decode_workers) < 1:
            raise ValueError("FleetConfig.decode_workers must be >= 1")
        if int(self.experiment_workers) < 0:
            raise ValueError("FleetConfig.experiment_workers must be >= 0")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"FleetConfig.transport must be one of {TRANSPORTS}, got {self.transport!r}")
        for field in ("heartbeat_interval_s", "heartbeat_timeout_s", "drain_timeout_s", "start_timeout_s"):
            if float(getattr(self, field)) <= 0:
                raise ValueError(f"FleetConfig.{field} must be positive")
        if float(self.heartbeat_timeout_s) <= float(self.heartbeat_interval_s):
            raise ValueError("FleetConfig.heartbeat_timeout_s must exceed heartbeat_interval_s")
        for field in ("max_restarts", "max_redispatch"):
            if int(getattr(self, field)) < 0:
                raise ValueError(f"FleetConfig.{field} must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetConfig":
        return _from_mapping(cls, data, "fleet config")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetConfig":
        return cls.from_dict(json.loads(text))


__all__ = [
    "DECODE_ENTRYPOINT",
    "EXPERIMENT_ENTRYPOINT",
    "FleetConfig",
    "TRANSPORTS",
    "WORKER_ROLES",
    "WorkerConfig",
    "WorkerSpec",
    "build_worker_session",
]
