"""Single-method evaluation.

The grid and sweep runners live in :mod:`repro.pipeline.runner`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.data.tasks import MultipleChoiceTask
from repro.eval.accuracy import suite_accuracy, task_accuracy
from repro.eval.perplexity import perplexity
from repro.nn.transformer import CausalLM
from repro.sparsity.base import SparsityMethod
from repro.utils.config import ConfigBase
from repro.utils.logging import get_logger

logger = get_logger("eval.harness")


@dataclasses.dataclass(frozen=True)
class EvaluationSettings(ConfigBase):
    """Evaluation workload sizes (kept small so benches run in minutes)."""

    max_eval_sequences: int = 16
    max_task_examples: int = 32
    calibration_sequences: int = 8
    #: Sequences per batched forward (``None`` = one forward per length bucket).
    batch_size: Optional[int] = None


@dataclasses.dataclass
class MethodEvaluation:
    """Metrics of one method on one model."""

    method_name: str
    model_name: str
    target_density: float
    perplexity: float
    accuracy: Optional[float] = None
    task_accuracies: Optional[Dict[str, float]] = None
    extra: Optional[Dict[str, float]] = None

    def row(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "method": self.method_name,
            "model": self.model_name,
            "density": self.target_density,
            "perplexity": self.perplexity,
        }
        if self.accuracy is not None:
            data["accuracy"] = self.accuracy
        if self.task_accuracies:
            data.update({f"acc[{k}]": v for k, v in self.task_accuracies.items()})
        if self.extra:
            data.update(self.extra)
        return data


def evaluate_method(
    model: CausalLM,
    method: Optional[SparsityMethod],
    eval_sequences: np.ndarray,
    calibration_sequences: Optional[np.ndarray] = None,
    tasks: Optional[Dict[str, MultipleChoiceTask]] = None,
    primary_task: Optional[MultipleChoiceTask] = None,
    settings: EvaluationSettings = EvaluationSettings(),
    model_name: str = "",
) -> MethodEvaluation:
    """Calibrate (if needed) and evaluate one method on one model."""
    if method is not None and method.requires_calibration:
        if calibration_sequences is None:
            raise ValueError(f"method '{method.name}' requires calibration sequences")
        method.calibrate(model, calibration_sequences[: settings.calibration_sequences])

    ppl = perplexity(model, eval_sequences, method=method, max_sequences=settings.max_eval_sequences)
    accuracy = None
    if primary_task is not None:
        accuracy = task_accuracy(model, primary_task, method=method, max_examples=settings.max_task_examples)
    task_accuracies = None
    if tasks:
        task_accuracies = suite_accuracy(model, tasks, method=method, max_examples=settings.max_task_examples)

    name = method.name if method is not None else "dense"
    density = method.target_density if method is not None else 1.0
    logger.info("evaluated %s on %s: ppl=%.3f", name, model_name, ppl)
    return MethodEvaluation(
        method_name=name,
        model_name=model_name,
        target_density=density,
        perplexity=ppl,
        accuracy=accuracy,
        task_accuracies=task_accuracies,
    )

