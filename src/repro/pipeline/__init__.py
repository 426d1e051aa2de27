"""Unified experiment pipeline: declarative specs, sessions, and runners.

This package is the front door to the library:

* :mod:`repro.pipeline.spec` — :class:`ExperimentSpec`, a frozen, validated,
  JSON-round-trippable description of one experiment.
* :mod:`repro.pipeline.session` — :class:`SparseSession`, a reusable binding
  of model × method × optional simulated device exposing every metric.
* :mod:`repro.pipeline.runner` — grid / density-sweep runners and
  :func:`run_experiment`, which executes a spec end to end.

.. code-block:: python

    from repro.pipeline import ExperimentSpec, MethodSection, run_experiment

    spec = ExperimentSpec(method=MethodSection(name="dip"), densities=(0.5, 0.7))
    result = run_experiment(spec)
    print(result.table())
"""

from repro.pipeline.spec import (
    CACHE_POLICIES,
    DataSection,
    EvalSection,
    ExperimentSpec,
    HardwareSection,
    MethodSection,
    ModelSection,
    SpecError,
)
from repro.pipeline.session import SparseSession
from repro.pipeline.runner import (
    ExperimentResult,
    ResultCache,
    density_sweep,
    hardware_sweep,
    merge_sweep_results,
    method_grid,
    run_experiment,
)

__all__ = [
    "ExperimentSpec",
    "ModelSection",
    "DataSection",
    "MethodSection",
    "EvalSection",
    "HardwareSection",
    "SpecError",
    "CACHE_POLICIES",
    "SparseSession",
    "ExperimentResult",
    "ResultCache",
    "method_grid",
    "density_sweep",
    "hardware_sweep",
    "merge_sweep_results",
    "run_experiment",
]
