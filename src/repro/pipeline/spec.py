"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, JSON-serialisable description of one
experiment: which model to prepare, on what data, which sparsity method to
apply at which densities, how to evaluate, and (optionally) which simulated
device — or *list* of devices, for multi-device hardware sweeps à la
Table 6/7 — to estimate throughput on.  Specs validate on construction and
raise :class:`SpecError` with messages that list the allowed values.

The spec layer deliberately knows nothing about execution; see
:class:`repro.pipeline.session.SparseSession` and
:mod:`repro.pipeline.runner` for that.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, Optional, Sequence, Tuple, Type, TypeVar, Union

from repro.backend import available_backends
from repro.data.tasks import TASK_NAMES
from repro.experiments.models import PreparationConfig
from repro.hwsim.device import DeviceSpec, get_device, list_devices
from repro.nn.model_zoo import list_models
from repro.sparsity.base import SparsityMethod
from repro.sparsity.registry import REGISTRY
from repro.utils.config import ConfigBase
from repro.utils.units import GB

S = TypeVar("S", bound="ConfigBase")

#: Cache policies understood by the HW simulator.
CACHE_POLICIES = ("none", "lru", "lfu", "belady")


class SpecError(ValueError):
    """An experiment spec is malformed; the message says how to fix it."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _section_from_dict(cls: Type[S], data: Optional[Mapping[str, Any]], section: str) -> S:
    """Build a section dataclass, rejecting unknown keys with a helpful error."""
    data = data or {}
    if not isinstance(data, Mapping):
        raise SpecError(f"section '{section}' must be a mapping, got {type(data).__name__}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - field_names)
    if unknown:
        raise SpecError(
            f"section '{section}' has unknown key(s) {unknown}; valid keys: {sorted(field_names)}"
        )
    return cls(**dict(data))


@dataclasses.dataclass(frozen=True)
class ModelSection(ConfigBase):
    """Which simulation-scale model to prepare and how to train it."""

    name: str = "phi3-medium"
    seed: int = 0
    train_steps: int = 500
    batch_size: int = 16
    learning_rate: float = 3e-3

    def __post_init__(self):
        _require(self.name in list_models(), f"unknown model '{self.name}'; available: {list_models()}")
        _require(self.train_steps > 0, "model.train_steps must be positive")
        _require(self.batch_size > 0, "model.batch_size must be positive")
        _require(self.learning_rate > 0, "model.learning_rate must be positive")


@dataclasses.dataclass(frozen=True)
class DataSection(ConfigBase):
    """Synthetic corpus and downstream-task sizes."""

    corpus_tokens: int = 120_000
    corpus_seed: int = 7
    seq_len: int = 48
    task_examples: int = 32
    task_shots: int = 1

    def __post_init__(self):
        _require(self.corpus_tokens > 0, "data.corpus_tokens must be positive")
        _require(self.seq_len > 1, "data.seq_len must exceed 1")
        _require(self.task_examples > 0, "data.task_examples must be positive")
        _require(self.task_shots >= 0, "data.task_shots must be non-negative")


@dataclasses.dataclass(frozen=True)
class MethodSection(ConfigBase):
    """Registry method name, operating density, and extra constructor kwargs."""

    name: str = "dip"
    target_density: float = 0.5
    kwargs: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        _require(
            self.name in REGISTRY,
            f"unknown sparsity method '{self.name}'; available: {REGISTRY.names()}",
        )
        _require(0.0 < self.target_density <= 1.0, "method.target_density must lie in (0, 1]")
        try:
            REGISTRY.validate_kwargs(self.name, dict(self.kwargs, target_density=self.target_density))
        except TypeError as exc:
            raise SpecError(f"method.kwargs invalid: {exc}") from exc

    def build(self, target_density: Optional[float] = None) -> SparsityMethod:
        """Instantiate the method (optionally at an overridden density)."""
        density = self.target_density if target_density is None else target_density
        return REGISTRY.create(self.name, target_density=density, **dict(self.kwargs))


@dataclasses.dataclass(frozen=True)
class EvalSection(ConfigBase):
    """Evaluation workload sizes and task selection."""

    max_eval_sequences: int = 16
    max_task_examples: int = 32
    calibration_sequences: int = 8
    #: Sequences per batched forward (``None`` = one forward per length bucket).
    batch_size: Optional[int] = None
    #: Task scored as the headline accuracy (``None`` skips accuracy).
    primary_task: Optional[str] = "mmlu"
    #: Extra suite tasks to score individually (Table 5 mode).
    tasks: Tuple[str, ...] = ()

    def __post_init__(self):
        _require(self.max_eval_sequences > 0, "eval.max_eval_sequences must be positive")
        _require(self.max_task_examples > 0, "eval.max_task_examples must be positive")
        _require(self.calibration_sequences > 0, "eval.calibration_sequences must be positive")
        _require(self.batch_size is None or self.batch_size > 0, "eval.batch_size must be positive")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for task in (self.primary_task, *self.tasks):
            _require(
                task is None or task in TASK_NAMES,
                f"unknown task '{task}'; available: {sorted(TASK_NAMES)}",
            )

    def settings(self):
        """The equivalent legacy :class:`~repro.eval.harness.EvaluationSettings`."""
        from repro.eval.harness import EvaluationSettings

        return EvaluationSettings(
            max_eval_sequences=self.max_eval_sequences,
            max_task_examples=self.max_task_examples,
            calibration_sequences=self.calibration_sequences,
            batch_size=self.batch_size,
        )


@dataclasses.dataclass(frozen=True)
class HardwareSection(ConfigBase):
    """Simulated device for throughput estimation (omit for accuracy-only runs).

    ``device`` names a preset from the hwsim device registry
    (:func:`repro.hwsim.device.list_devices`; extend it with
    :func:`repro.hwsim.device.register_device`).  ``dram_gb`` / ``flash_gbps``
    override the preset's DRAM capacity and Flash read bandwidth — this is how
    the paper's hardware ablations (Table 6 / Table 7) are expressed as a
    sweep over hardware points of one base device.
    """

    device: str = "apple-a18"
    #: Override the preset's DRAM capacity (GB); ``None`` keeps the preset value.
    dram_gb: Optional[float] = None
    #: Override the preset's Flash read bandwidth (GB/s); ``None`` keeps the preset value.
    flash_gbps: Optional[float] = None
    bits_per_weight: float = 4.0
    simulated_tokens: int = 20
    cache_policy: str = "lfu"
    kv_cache_seq_len: int = 2048
    trace_seed: int = 0

    def __post_init__(self):
        _require(
            self.device in list_devices(),
            f"unknown device '{self.device}'; available: {list_devices()}",
        )
        _require(self.dram_gb is None or self.dram_gb > 0, "hardware.dram_gb must be positive")
        _require(
            self.flash_gbps is None or self.flash_gbps > 0, "hardware.flash_gbps must be positive"
        )
        _require(self.bits_per_weight > 0, "hardware.bits_per_weight must be positive")
        _require(self.simulated_tokens > 0, "hardware.simulated_tokens must be positive")
        _require(
            self.cache_policy in CACHE_POLICIES,
            f"unknown cache policy '{self.cache_policy}'; available: {list(CACHE_POLICIES)}",
        )

    def device_spec(self) -> DeviceSpec:
        """Resolve the preset (with the DRAM / Flash overrides applied)."""
        device = get_device(self.device)
        if self.dram_gb is not None:
            device = device.with_dram(self.dram_gb * GB)
        if self.flash_gbps is not None:
            device = device.with_flash_bandwidth(self.flash_gbps * GB)
        return device

    def label(self) -> str:
        """Compact human-readable identifier (device plus any overrides)."""
        overrides = []
        if self.dram_gb is not None:
            overrides.append(f"dram={self.dram_gb:g}GB")
        if self.flash_gbps is not None:
            overrides.append(f"flash={self.flash_gbps:g}GB/s")
        if not overrides:
            return self.device
        return f"{self.device}[{','.join(overrides)}]"


#: What ``ExperimentSpec.hardware`` accepts: nothing (accuracy-only), one
#: device point, or a list of points (a hardware sweep — Table 6 / Table 7).
HardwareLike = Union[None, HardwareSection, Sequence[HardwareSection]]


def _coerce_hardware_point(value: Any, section: str) -> HardwareSection:
    if isinstance(value, HardwareSection):
        return value
    if isinstance(value, Mapping):
        return _section_from_dict(HardwareSection, value, section)
    raise SpecError(
        f"section '{section}' must be a HardwareSection or a mapping, got {type(value).__name__}"
    )


@dataclasses.dataclass(frozen=True)
class ExperimentSpec(ConfigBase):
    """Complete declarative description of one experiment."""

    name: str = "experiment"
    model: ModelSection = dataclasses.field(default_factory=ModelSection)
    data: DataSection = dataclasses.field(default_factory=DataSection)
    method: MethodSection = dataclasses.field(default_factory=MethodSection)
    #: Density grid; empty means "just method.target_density".
    densities: Tuple[float, ...] = ()
    eval: EvalSection = dataclasses.field(default_factory=EvalSection)
    #: ``None`` (accuracy-only), one :class:`HardwareSection`, or a list of
    #: them — a multi-device hardware sweep evaluated by
    #: :func:`repro.pipeline.runner.hardware_sweep`.
    hardware: HardwareLike = dataclasses.field(default_factory=HardwareSection)
    #: Compute backend the session's inference runs under (``None`` inherits
    #: the ambient selection: an explicit ``use_backend`` scope, then the
    #: ``REPRO_BACKEND`` env var, then the numpy reference).
    backend: Optional[str] = None

    def __post_init__(self):
        _require(bool(self.name), "spec.name must be non-empty")
        _require(
            self.backend is None or self.backend in available_backends(),
            f"unknown backend '{self.backend}'; available: {list(available_backends())}",
        )
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        for density in self.densities:
            _require(0.0 < density <= 1.0, f"density {density} must lie in (0, 1]")
        hardware = self.hardware
        if hardware is None or isinstance(hardware, HardwareSection):
            pass
        elif isinstance(hardware, Mapping):
            object.__setattr__(self, "hardware", _coerce_hardware_point(hardware, "hardware"))
        elif isinstance(hardware, Sequence) and not isinstance(hardware, (str, bytes)):
            points = tuple(
                _coerce_hardware_point(point, f"hardware[{index}]")
                for index, point in enumerate(hardware)
            )
            _require(
                len(points) > 0,
                "spec.hardware list must name at least one device point "
                "(use null/None for accuracy-only runs)",
            )
            object.__setattr__(self, "hardware", points)
        else:
            raise SpecError(
                "spec.hardware must be null, a hardware section, or a list of hardware "
                f"sections, got {type(hardware).__name__}"
            )

    # ------------------------------------------------------------- conversion
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from nested dictionaries, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise SpecError(f"spec has unknown key(s) {unknown}; valid keys: {sorted(field_names)}")
        # ``hardware`` may be null, one mapping, or a list of mappings; the
        # constructor coerces and validates all three forms.
        return cls(
            name=data.get("name", "experiment"),
            model=_section_from_dict(ModelSection, data.get("model"), "model"),
            data=_section_from_dict(DataSection, data.get("data"), "data"),
            method=_section_from_dict(MethodSection, data.get("method"), "method"),
            densities=tuple(data.get("densities", ())),
            eval=_section_from_dict(EvalSection, data.get("eval"), "eval"),
            hardware=data.get("hardware", {}),
            backend=data.get("backend"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------- derivation
    def density_grid(self) -> Tuple[float, ...]:
        """Densities to evaluate (falls back to the method's target density)."""
        return self.densities if self.densities else (self.method.target_density,)

    def hardware_points(self) -> Tuple[HardwareSection, ...]:
        """The hardware section(s) as a tuple (empty for accuracy-only specs)."""
        if self.hardware is None:
            return ()
        if isinstance(self.hardware, HardwareSection):
            return (self.hardware,)
        return tuple(self.hardware)

    def primary_hardware(self) -> Optional[HardwareSection]:
        """The first hardware point, or ``None`` (what a single session binds)."""
        points = self.hardware_points()
        return points[0] if points else None

    def is_hardware_sweep(self) -> bool:
        """True when ``hardware`` is a list — evaluated per device point."""
        return not (self.hardware is None or isinstance(self.hardware, HardwareSection))

    def with_hardware(self, hardware: HardwareLike) -> "ExperimentSpec":
        """Copy of the spec bound to different hardware (point, list, or None)."""
        return self.replace(hardware=hardware)

    def preparation(self) -> PreparationConfig:
        """Model/data sections mapped onto the experiment-prep config."""
        return PreparationConfig(
            corpus_tokens=self.data.corpus_tokens,
            corpus_seed=self.data.corpus_seed,
            seq_len=self.data.seq_len,
            train_steps=self.model.train_steps,
            batch_size=self.model.batch_size,
            learning_rate=self.model.learning_rate,
            model_seed=self.model.seed,
            task_examples=self.data.task_examples,
            task_shots=self.data.task_shots,
        )

    def build_method(self, target_density: Optional[float] = None) -> SparsityMethod:
        """Instantiate the spec's sparsity method."""
        return self.method.build(target_density)
