"""A reusable session binding a model, a sparsity method, and optional hardware.

:class:`SparseSession` is the execution half of the pipeline API: it owns the
prepared model and its evaluation assets, wraps a
:class:`~repro.engine.inference.SparseInferenceEngine`, and exposes every
metric the library computes (perplexity, task accuracy, simulated throughput,
mask collection) plus explicit lifecycle hooks (:meth:`calibrate`,
:meth:`reset`).  All method state handling goes through the
:class:`~repro.sparsity.base.SparsityMethod` interface — the session never
type-checks concrete methods.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.backend import BackendLike, use_backend
from repro.data.tasks import MultipleChoiceTask
from repro.engine.inference import SparseInferenceEngine
from repro.engine.throughput import ThroughputEstimate, throughput_for_method
from repro.eval.accuracy import suite_accuracy, task_accuracy
from repro.eval.harness import EvaluationSettings, MethodEvaluation
from repro.hwsim.device import DeviceSpec
from repro.hwsim.trace import SyntheticTraceConfig
from repro.nn.model_zoo import ModelSpec, get_model_spec
from repro.nn.transformer import CausalLM
from repro.sparsity.base import DenseBaseline, MLPMasks, SparsityMethod
from repro.sparsity.registry import REGISTRY
from repro.utils.logging import get_logger

from repro.pipeline.spec import ExperimentSpec, HardwareSection

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.models import PreparedModel

logger = get_logger("pipeline.session")

MethodLike = Union[SparsityMethod, str, None]


class SparseSession:
    """One (model × method × optional device) binding, reusable across metrics.

    Sessions are cheap: :meth:`with_method` clones the binding onto another
    method while sharing the model and evaluation assets, which is how grid
    and sweep runners iterate.
    """

    def __init__(
        self,
        model: Optional[CausalLM],
        method: MethodLike = None,
        *,
        model_spec: Optional[ModelSpec] = None,
        device: Optional[DeviceSpec] = None,
        hardware: Optional[HardwareSection] = None,
        settings: Optional[EvaluationSettings] = None,
        model_name: str = "",
        eval_sequences: Optional[np.ndarray] = None,
        calibration_sequences: Optional[np.ndarray] = None,
        primary_task: Optional[MultipleChoiceTask] = None,
        task_suite: Optional[Dict[str, MultipleChoiceTask]] = None,
        dense_ppl: Optional[float] = None,
        record_masks: bool = False,
        backend: BackendLike = None,
    ) -> None:
        if isinstance(method, str):
            method = REGISTRY.create(method)
        self.method: SparsityMethod = method if method is not None else DenseBaseline()
        self.model: Optional[CausalLM] = model
        self.model_spec = model_spec
        self.device = device
        self.hardware = hardware
        self.settings = settings if settings is not None else EvaluationSettings()
        self.model_name = model_name or (model_spec.name if model_spec is not None else "")
        self.eval_sequences = eval_sequences
        self.calibration_sequences = calibration_sequences
        self.primary_task = primary_task
        self.task_suite = task_suite
        self.dense_ppl = dense_ppl
        #: Compute backend the session's metrics run under (name, instance, or
        #: None to take the ambient selection as each call starts — see
        #: ``repro.backend``).
        self.backend: BackendLike = backend
        self.engine: Optional[SparseInferenceEngine] = (
            SparseInferenceEngine(model, self.method, record_masks=record_masks, backend=backend)
            if model is not None
            else None
        )
        self._calibrated = not self.method.requires_calibration

    # ------------------------------------------------------------ construction
    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        *,
        prepared: Optional[PreparedModel] = None,
        cache: Optional[ArtifactCache] = None,
        prepare: bool = True,
        method: MethodLike = None,
    ) -> "SparseSession":
        """Build a session from a declarative spec.

        ``prepared`` reuses an existing
        :class:`~repro.experiments.models.PreparedModel` (its assets override
        the spec's model/data sections).  ``prepare=False`` skips model
        preparation entirely — useful for hardware-only studies, where only
        :meth:`throughput` is needed.  ``method`` overrides the spec's method
        section (e.g. for grid runners).
        """
        if method is None:
            method = spec.build_method()
        elif isinstance(method, str):
            method = REGISTRY.create(method, target_density=spec.method.target_density)
        # A session binds one device; for a hardware *sweep* the runner
        # (``hardware_sweep``) overrides the device per point.
        hardware = spec.primary_hardware()
        device = hardware.device_spec() if hardware is not None else None

        if prepared is None and prepare:
            from repro.experiments.models import prepare_model

            prepared = prepare_model(spec.model.name, preparation=spec.preparation(), cache=cache)

        if prepared is None:
            return cls(
                None,
                method,
                model_spec=get_model_spec(spec.model.name),
                device=device,
                hardware=hardware,
                settings=spec.eval.settings(),
                model_name=spec.model.name,
                backend=spec.backend,
            )

        task_suite = None
        if spec.eval.tasks:
            task_suite = {name: prepared.task_suite[name] for name in spec.eval.tasks}
        # "mmlu" keeps the dedicated primary task prepare_model builds (legacy
        # parity); any other name selects that task from the prepared suite.
        if spec.eval.primary_task is None:
            primary_task = None
        elif spec.eval.primary_task == "mmlu":
            primary_task = prepared.primary_task
        else:
            primary_task = prepared.task_suite[spec.eval.primary_task]
        return cls(
            prepared.model,
            method,
            model_spec=prepared.spec,
            device=device,
            hardware=hardware,
            settings=spec.eval.settings(),
            model_name=prepared.name,
            eval_sequences=prepared.eval_sequences,
            calibration_sequences=prepared.calibration_sequences,
            primary_task=primary_task,
            task_suite=task_suite,
            dense_ppl=prepared.dense_ppl,
            backend=spec.backend,
        )

    def with_method(self, method: MethodLike) -> "SparseSession":
        """Clone the session onto another method, sharing model and assets.

        A method given by registry name is instantiated at the current
        method's target density (pass an instance to choose another density).
        """
        if isinstance(method, str):
            method = REGISTRY.create(method, target_density=self.method.target_density)
        return SparseSession(
            self.model,
            method,
            model_spec=self.model_spec,
            device=self.device,
            hardware=self.hardware,
            settings=self.settings,
            model_name=self.model_name,
            eval_sequences=self.eval_sequences,
            calibration_sequences=self.calibration_sequences,
            primary_task=self.primary_task,
            task_suite=self.task_suite,
            dense_ppl=self.dense_ppl,
            backend=self.backend,
        )

    def share_calibration(self) -> "SparseSession":
        """Clone the session onto a *deep copy* of the current method.

        The copy carries any calibration state the method has already fitted,
        so callers can :meth:`calibrate` once on the base session and fan out
        independent sessions without re-running calibration (and without
        sharing mutable method state between them).  The scheduler runs each
        ``/experiment`` on such a copy, and fleet decode workers decode on one.
        """
        clone = self.with_method(copy.deepcopy(self.method))
        clone._calibrated = self._calibrated
        return clone

    # -------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Reset method state (dispatched via ``SparsityMethod.reset``)."""
        if self.engine is not None:
            self.engine.reset()
        else:
            self.method.reset()

    def calibrate(self, sequences: Optional[np.ndarray] = None, force: bool = False) -> None:
        """Run the method's calibration once (no-op if not required).

        Uses the session's stored calibration sequences (truncated to
        ``settings.calibration_sequences``) unless ``sequences`` is given.
        """
        if self._calibrated and not force:
            return
        self._require_model("calibrate")
        if sequences is None:
            if self.calibration_sequences is None:
                raise ValueError(
                    f"method '{self.method.name}' requires calibration sequences; pass them to "
                    "calibrate() or construct the session with calibration_sequences"
                )
            sequences = self.calibration_sequences[: self.settings.calibration_sequences]
        assert self.model is not None  # _require_model above
        with use_backend(self.backend):
            self.method.calibrate(self.model, sequences)
        self._calibrated = True

    # ---------------------------------------------------------------- metrics
    def perplexity(
        self,
        sequences: Optional[np.ndarray] = None,
        max_sequences: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> float:
        """Token-level perplexity under the active method (state reset first).

        ``settings.max_eval_sequences`` caps the session's stored sequences;
        explicitly passed ``sequences`` are evaluated in full unless
        ``max_sequences`` says otherwise.  Evaluation is batched by length
        bucket, at most ``batch_size`` sequences per forward (default
        ``settings.batch_size``; ``None`` chunks to the engine's token budget).
        """
        self._require_model("perplexity")
        if max_sequences is None and sequences is None:
            max_sequences = self.settings.max_eval_sequences
        sequences = self._eval_sequences(sequences)
        self.calibrate()
        self.reset()
        if batch_size is None:
            batch_size = self.settings.batch_size
        assert self.engine is not None  # _require_model above
        return self.engine.perplexity(sequences, max_sequences=max_sequences, batch_size=batch_size)

    def accuracy(
        self, task: Optional[MultipleChoiceTask] = None, max_examples: Optional[int] = None
    ) -> float:
        """Accuracy (percent) on ``task`` (defaults to the session's primary task).

        ``settings.max_task_examples`` caps the session's stored task; an
        explicitly passed ``task`` is scored in full unless ``max_examples``
        says otherwise.
        """
        self._require_model("accuracy")
        if max_examples is None and task is None:
            max_examples = self.settings.max_task_examples
        task = task if task is not None else self.primary_task
        if task is None:
            raise ValueError("no task given and the session has no primary task")
        self.calibrate()
        assert self.model is not None  # _require_model above
        with use_backend(self.backend):
            return task_accuracy(
                self.model,
                task,
                method=self.method,
                max_examples=max_examples,
                batch_size=self.settings.batch_size,
            )

    def suite_accuracy(self, max_examples: Optional[int] = None) -> Dict[str, float]:
        """Accuracy on every task of the session's suite."""
        self._require_model("suite_accuracy")
        if not self.task_suite:
            raise ValueError("the session has no task suite")
        if max_examples is None:
            max_examples = self.settings.max_task_examples
        self.calibrate()
        assert self.model is not None  # _require_model above
        with use_backend(self.backend):
            return suite_accuracy(
                self.model,
                self.task_suite,
                method=self.method,
                max_examples=max_examples,
                batch_size=self.settings.batch_size,
            )

    def throughput(
        self,
        n_tokens: Optional[int] = None,
        cache_policy: Optional[str] = None,
        device: Optional[DeviceSpec] = None,
        trace_config: Optional[SyntheticTraceConfig] = None,
        trace_seed: Optional[int] = None,
        bits_per_weight: Optional[float] = None,
        kv_cache_seq_len: Optional[int] = None,
    ) -> ThroughputEstimate:
        """Simulated tokens/second at paper-scale geometry on the session device.

        Parameters default to the spec's hardware section; any argument
        overrides it for this call.  Dense sessions estimate the streamed
        dense baseline.
        """
        device = device if device is not None else self.device
        if self.model_spec is None or device is None:
            raise ValueError("throughput() needs a model spec and a device (spec hardware section)")
        hw = self.hardware if self.hardware is not None else HardwareSection()
        method = None if isinstance(self.method, DenseBaseline) else self.method
        return throughput_for_method(
            method,
            self.model_spec,
            device,
            bits_per_weight=bits_per_weight if bits_per_weight is not None else hw.bits_per_weight,
            n_tokens=n_tokens if n_tokens is not None else hw.simulated_tokens,
            cache_policy=cache_policy if cache_policy is not None else hw.cache_policy,
            trace_config=trace_config,
            trace_seed=trace_seed if trace_seed is not None else hw.trace_seed,
            kv_cache_seq_len=kv_cache_seq_len if kv_cache_seq_len is not None else hw.kv_cache_seq_len,
        )

    def collect_masks(
        self, sequences: Optional[np.ndarray] = None, batch_size: Optional[int] = None
    ) -> List[MLPMasks]:
        """Run sequences purely to record per-layer masks (HW-simulator traces)."""
        self._require_model("collect_masks")
        sequences = self._eval_sequences(sequences)
        self.calibrate()
        self.reset()
        if batch_size is None:
            batch_size = self.settings.batch_size
        assert self.engine is not None  # _require_model above
        return self.engine.collect_masks(sequences, batch_size=batch_size)

    def generate(
        self,
        prompts: np.ndarray,
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample continuations under the active method.

        A single ``(prompt_len,)`` prompt returns one sequence, from the
        numpy oracle (:meth:`SparseInferenceEngine.generate`); a ``(batch,
        prompt_len)`` array decodes the whole batch through one
        ``ContinuousBatch`` (:meth:`SparseInferenceEngine.generate_batch`).
        Method state is reset first, like every other metric, so output
        never depends on prior session usage.
        """
        self._require_model("generate")
        self.calibrate()
        self.reset()
        assert self.engine is not None  # _require_model above
        prompts = np.asarray(prompts, dtype=np.int64)
        if prompts.ndim == 1:
            return self.engine.generate(prompts, max_new_tokens, temperature=temperature, rng=rng)
        return self.engine.generate_batch(prompts, max_new_tokens, temperature=temperature, rng=rng)

    def evaluate(self, include_suite: bool = True) -> MethodEvaluation:
        """Full evaluation row: perplexity plus (when tasks exist) accuracies.

        Produces results identical to the legacy
        ``repro.eval.harness.evaluate_method`` on the same inputs.
        """
        self.calibrate()
        ppl = self.perplexity()
        accuracy = self.accuracy() if self.primary_task is not None else None
        task_accuracies = (
            self.suite_accuracy() if include_suite and self.task_suite else None
        )
        logger.info("evaluated %s on %s: ppl=%.3f", self.method.name, self.model_name, ppl)
        return MethodEvaluation(
            method_name=self.method.name,
            model_name=self.model_name,
            target_density=self.method.target_density,
            perplexity=ppl,
            accuracy=accuracy,
            task_accuracies=task_accuracies,
        )

    # ---------------------------------------------------------------- helpers
    def _eval_sequences(self, sequences: Optional[np.ndarray]) -> np.ndarray:
        if sequences is not None:
            return sequences
        if self.eval_sequences is None:
            raise ValueError("no sequences given and the session has no eval sequences")
        return self.eval_sequences

    def _require_model(self, what: str) -> None:
        if self.model is None:
            raise ValueError(
                f"{what}() needs a prepared model; this session was built with prepare=False "
                "(hardware-only)"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseSession(model={self.model_name or 'unnamed'}, method={self.method.name}, "
            f"density={self.method.target_density})"
        )
