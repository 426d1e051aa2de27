"""Grid and sweep runners over :class:`~repro.pipeline.session.SparseSession`.

Besides :func:`method_grid` and :func:`density_sweep`, the spec-driven
entry point :func:`run_experiment` evaluates a declarative
:class:`~repro.pipeline.spec.ExperimentSpec` end to end and can persist its
rows as artifacts.  A spec whose ``hardware`` is a list fans out through
:func:`hardware_sweep`: the density grid is evaluated once on a shared
calibrated session and only the hardware simulation runs per device point —
this is how Table 6 (DRAM ablation) and Table 7 (Flash ablation) regenerate
from a single spec.

Results are cacheable: :class:`ResultCache` stores finished
:class:`ExperimentResult` payloads as JSON keyed by
``ExperimentSpec.content_hash()``, so repeated grid cells are served from disk
instead of re-evaluated (the model-weights analogue is
:class:`~repro.experiments.artifacts.ArtifactCache`).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.engine.throughput import ThroughputEstimate
from repro.eval.harness import MethodEvaluation
from repro.eval.reporting import format_table
from repro.experiments.artifacts import default_artifact_dir
from repro.sparsity.base import SparsityMethod
from repro.sparsity.registry import REGISTRY
from repro.utils.config import config_hash
from repro.utils.logging import get_logger

from repro.pipeline.session import MethodLike, SparseSession
from repro.pipeline.spec import ExperimentSpec, HardwareSection

if TYPE_CHECKING:
    from repro.experiments.artifacts import ArtifactCache

logger = get_logger("pipeline.runner")

#: A method reference: registry name, ``None`` (dense), or factory ``density -> method``.
MethodRef = Union[str, None, Callable[[float], Optional[SparsityMethod]]]


def _method_at(
    ref: MethodRef, density: float, kwargs: Optional[Mapping[str, Any]] = None
) -> Optional[SparsityMethod]:
    """Instantiate ``ref`` at ``density`` (name, factory, or None for dense)."""
    if ref is None:
        return None
    if callable(ref):
        return ref(density)
    return REGISTRY.create(ref, target_density=density, **dict(kwargs or {}))


def method_grid(
    session: SparseSession,
    method_names: Sequence[str],
    target_density: float,
    method_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> List[MethodEvaluation]:
    """Evaluate several registry methods at one density (Table 1/3/4 rows).

    ``session`` carries the model and evaluation assets; each method runs in a
    cloned session via :meth:`SparseSession.with_method`.
    """
    method_kwargs = method_kwargs or {}
    results = []
    for name in method_names:
        method = _method_at(None if name == "dense" else name, target_density, method_kwargs.get(name))
        results.append(session.with_method(method).evaluate())
    return results


def density_sweep(
    session: SparseSession,
    method: MethodRef,
    densities: Sequence[float],
    method_kwargs: Optional[Mapping[str, Any]] = None,
) -> List[MethodEvaluation]:
    """Evaluate one method family across densities (Pareto curves, Fig. 8/14)."""
    return [
        session.with_method(_method_at(method, density, method_kwargs)).evaluate()
        for density in densities
    ]


@dataclasses.dataclass
class ExperimentResult:
    """Evaluations (and optional throughput estimates) of one experiment.

    For a merged hardware sweep, ``hardware_labels`` carries one
    :meth:`~repro.pipeline.spec.HardwareSection.label` per throughput estimate
    so :meth:`rows` can tell the device points apart.
    """

    spec: Optional[ExperimentSpec]
    evaluations: List[MethodEvaluation]
    throughputs: List[ThroughputEstimate] = dataclasses.field(default_factory=list)
    hardware_labels: Optional[List[str]] = None

    def rows(self) -> List[Dict[str, object]]:
        """One flat dict per evaluated operating point."""
        paired = len(self.throughputs) == len(self.evaluations)
        labels = self.hardware_labels
        labelled = paired and labels is not None and len(labels) == len(self.throughputs)
        rows = []
        for index, evaluation in enumerate(self.evaluations):
            row = evaluation.row()
            if labelled:
                assert labels is not None  # implied by `labelled`
                row["hardware"] = labels[index]
            if paired:
                estimate = self.throughputs[index]
                row["tokens/s"] = estimate.tokens_per_second
                row["cache_hit_rate"] = estimate.cache_hit_rate
            rows.append(row)
        return rows

    def table(self, precision: int = 3, title: str = "") -> str:
        """Rendered table of :meth:`rows`."""
        return format_table(self.rows(), precision=precision, title=title)

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``<name>.json`` (spec + rows) and ``<name>.txt`` (table)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = self.spec.name if self.spec is not None else "experiment"
        payload = {
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "rows": self.rows(),
        }
        json_path = directory / f"{name}.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
        (directory / f"{name}.txt").write_text(self.table(title=name) + "\n")
        logger.info("saved experiment artifacts to %s", json_path)
        return json_path

    # ------------------------------------------------------------ round trip
    def to_dict(self) -> Dict[str, Any]:
        """Lossless-enough JSON payload for the result cache.

        ``ThroughputEstimate.simulation`` (the raw per-token trace) is
        dropped; everything the tables and figures consume survives.
        """
        return {
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "evaluations": [dataclasses.asdict(e) for e in self.evaluations],
            "throughputs": [
                dataclasses.asdict(dataclasses.replace(t, simulation=None))
                for t in self.throughputs
            ],
            "hardware_labels": self.hardware_labels,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        spec = ExperimentSpec.from_dict(data["spec"]) if data.get("spec") is not None else None
        evaluations = [MethodEvaluation(**e) for e in data.get("evaluations", ())]
        throughputs = [ThroughputEstimate(**t) for t in data.get("throughputs", ())]
        labels = data.get("hardware_labels")
        return cls(
            spec=spec,
            evaluations=evaluations,
            throughputs=throughputs,
            hardware_labels=list(labels) if labels is not None else None,
        )


class ResultCache:
    """JSON store of finished experiment results keyed by spec content hash.

    Lives next to the model-weight artifacts (``$REPRO_ARTIFACT_DIR`` or
    ``<cwd>/.artifacts``) unless given another root.  Keys are
    ``result-<spec.content_hash()><suffix>``; the suffix encodes run options
    that change the output (e.g. ``include_dense``) and, when the spec has
    hardware, a hash of the *resolved* device constants — a spec only names
    its device preset, so re-registering a preset with different bandwidths
    (``register_device(..., overwrite=True)``) must not hit results computed
    under the old definition.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_artifact_dir()

    @staticmethod
    def key_for(spec: ExperimentSpec, include_dense: bool = False) -> str:
        suffix = "-dense" if include_dense else ""
        points = spec.hardware_points()
        if points:
            devices = config_hash(*[point.device_spec() for point in points], length=8)
            suffix = f"-hw{devices}{suffix}"
        return f"result-{spec.content_hash()}{suffix}"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def load(self, key: str) -> ExperimentResult:
        path = self._path(key)
        if not path.exists():
            raise FileNotFoundError(f"no cached result '{key}' under {self.root}")
        return ExperimentResult.from_dict(json.loads(path.read_text()))

    def save(self, key: str, result: ExperimentResult) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        logger.info("cached experiment result %s", path)
        return path

    def delete(self, key: str) -> None:
        path = self._path(key)
        if path.exists():
            path.unlink()

    def keys(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("result-*.json"))


def _coerce_result_cache(
    result_cache: Union[None, bool, str, Path, ResultCache],
) -> Optional[ResultCache]:
    """Normalise the ``result_cache`` argument (None/False → no caching)."""
    if result_cache is None or result_cache is False:
        return None
    if result_cache is True:
        return ResultCache()
    if isinstance(result_cache, ResultCache):
        return result_cache
    return ResultCache(result_cache)


def _throughput_at(bound: SparseSession, hardware: HardwareSection) -> ThroughputEstimate:
    """Simulate ``bound``'s method on one hardware point of a spec."""
    return bound.throughput(
        device=hardware.device_spec(),
        n_tokens=hardware.simulated_tokens,
        cache_policy=hardware.cache_policy,
        trace_seed=hardware.trace_seed,
        bits_per_weight=hardware.bits_per_weight,
        kv_cache_seq_len=hardware.kv_cache_seq_len,
    )


def hardware_sweep(
    spec: ExperimentSpec,
    *,
    session: Optional[SparseSession] = None,
    cache: Optional[ArtifactCache] = None,
    include_dense: bool = False,
    artifacts_dir: Optional[Union[str, Path]] = None,
    result_cache: Union[None, bool, str, Path, ResultCache] = None,
) -> List[ExperimentResult]:
    """Fan one spec out across its hardware points (Table 6 / Table 7).

    Returns one :class:`ExperimentResult` per hardware point, each carrying a
    single-hardware sub-spec named ``<spec.name>@<point label>`` (so per-point
    artifacts do not overwrite each other).  Accuracy metrics are
    device-independent, so the density grid is **evaluated once** on a shared
    calibrated session and only the throughput simulation is re-run per
    device.  With ``result_cache`` enabled, every (spec, device) point is
    cached under its sub-spec's key — a fully cached sweep never prepares the
    model at all.
    """
    points = spec.hardware_points()
    if not points:
        raise ValueError(
            "hardware_sweep needs a spec with at least one hardware point; "
            "got hardware=None (accuracy-only)"
        )
    cache_store = _coerce_result_cache(result_cache)

    def _sub_spec(point: HardwareSection) -> ExperimentSpec:
        sub = spec.with_hardware(point)
        if len(points) > 1:
            # Distinct per-point names keep per-point artifacts (``save`` writes
            # ``<name>.json``) from overwriting each other.
            sub = sub.replace(name=f"{spec.name}@{point.label().replace('/', '-')}")
        return sub

    results: List[Optional[ExperimentResult]] = [None] * len(points)
    pending: List[int] = []
    for index, point in enumerate(points):
        sub_spec = _sub_spec(point)
        if cache_store is not None:
            key = ResultCache.key_for(sub_spec, include_dense=include_dense)
            if cache_store.has(key):
                logger.info("result cache hit for sweep point '%s' (%s)", point.label(), key)
                cached = cache_store.load(key)
                results[index] = cached
                if artifacts_dir is not None:
                    cached.save(artifacts_dir)
                continue
        pending.append(index)

    if pending:
        if session is None:
            session = SparseSession.from_spec(spec, cache=cache)
        if session.model_spec is None:
            # Unlike run_experiment's single-hardware path (where hardware is
            # optional), a sweep that cannot simulate throughput would just
            # duplicate identical accuracy rows per point — reject it early.
            raise ValueError(
                "hardware_sweep needs a session with a model_spec to simulate "
                "throughput; this session has none"
            )
        bound_sessions: List[SparseSession] = []
        if include_dense:
            bound_sessions.append(session.with_method(None))
        for density in spec.density_grid():
            bound_sessions.append(session.with_method(spec.build_method(target_density=density)))
        # One evaluation pass for all devices; throughput per (method, device).
        evaluations = [bound.evaluate() for bound in bound_sessions]
        for index in pending:
            point = points[index]
            sub_spec = _sub_spec(point)
            throughputs = [_throughput_at(bound, point) for bound in bound_sessions]
            result = ExperimentResult(
                spec=sub_spec, evaluations=list(evaluations), throughputs=throughputs
            )
            if cache_store is not None:
                cache_store.save(
                    ResultCache.key_for(sub_spec, include_dense=include_dense), result
                )
            if artifacts_dir is not None:
                result.save(artifacts_dir)
            results[index] = result
    final = [result for result in results if result is not None]
    assert len(final) == len(points)  # every point is either cached or pending
    return final


def merge_sweep_results(
    spec: ExperimentSpec, per_point: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Concatenate per-device sweep results into one labelled result."""
    labels: List[str] = []
    for result in per_point:
        point = result.spec.primary_hardware() if result.spec is not None else None
        labels.extend([point.label() if point is not None else ""] * len(result.throughputs))
    return ExperimentResult(
        spec=spec,
        evaluations=[e for r in per_point for e in r.evaluations],
        throughputs=[t for r in per_point for t in r.throughputs],
        hardware_labels=labels,
    )


def run_experiment(
    spec: ExperimentSpec,
    *,
    session: Optional[SparseSession] = None,
    cache: Optional[ArtifactCache] = None,
    include_dense: bool = False,
    artifacts_dir: Optional[Union[str, Path]] = None,
    result_cache: Union[None, bool, str, Path, ResultCache] = None,
) -> ExperimentResult:
    """Run a declarative experiment spec end to end.

    Prepares (or reuses, via ``session``) the model, sweeps the spec's density
    grid with its method, optionally adds the dense baseline row, estimates
    throughput when the spec has a hardware section, and saves artifacts when
    ``artifacts_dir`` is given.

    A spec whose ``hardware`` is a *list* is a multi-device sweep: it is fanned
    out via :func:`hardware_sweep` (evaluating the density grid once, then
    simulating throughput per device) and the per-point results are merged
    into one :class:`ExperimentResult` whose rows carry a ``hardware`` column.

    ``result_cache`` enables session-level result caching keyed by
    ``spec.content_hash()``: pass ``True`` (default artifact directory), a
    directory path, or a :class:`ResultCache`.  A hit skips evaluation
    entirely; a miss evaluates and stores the result for the next run.  For a
    hardware sweep, caching is per (spec, device) point, so extending the
    device list only evaluates the new points.
    """
    if spec.is_hardware_sweep():
        per_point = hardware_sweep(
            spec,
            session=session,
            cache=cache,
            include_dense=include_dense,
            result_cache=result_cache,
        )
        merged = merge_sweep_results(spec, per_point)
        if artifacts_dir is not None:
            merged.save(artifacts_dir)
        return merged

    result_cache = _coerce_result_cache(result_cache)
    if result_cache is not None:
        key = ResultCache.key_for(spec, include_dense=include_dense)
        if result_cache.has(key):
            logger.info("result cache hit for spec '%s' (%s)", spec.name, key)
            cached = result_cache.load(key)
            if artifacts_dir is not None:
                cached.save(artifacts_dir)
            return cached

    active = session if session is not None else SparseSession.from_spec(spec, cache=cache)

    evaluations: List[MethodEvaluation] = []
    throughputs: List[ThroughputEstimate] = []
    # The spec argument is authoritative for throughput: a reused session may
    # have been built from a different (or no) hardware section.
    hardware = spec.primary_hardware()
    wants_throughput = hardware is not None and active.model_spec is not None

    def _run(method: MethodLike) -> None:
        bound = active.with_method(method)
        evaluations.append(bound.evaluate())
        if wants_throughput:
            assert hardware is not None  # implied by wants_throughput
            throughputs.append(_throughput_at(bound, hardware))

    if include_dense:
        _run(None)
    for density in spec.density_grid():
        _run(spec.build_method(target_density=density))

    result = ExperimentResult(spec=spec, evaluations=evaluations, throughputs=throughputs)
    if result_cache is not None:
        result_cache.save(ResultCache.key_for(spec, include_dense=include_dense), result)
    if artifacts_dir is not None:
        result.save(artifacts_dir)
    return result
