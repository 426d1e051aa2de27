"""Async serving layer: continuous batching over the pipeline API.

The serving subsystem turns the library from a batch-experiment tool into a
request-driven service:

* :mod:`repro.serving.requests` — :class:`GenerationRequest` /
  :class:`GenerationResult` wire types (JSON round-trip) and
  :func:`run_experiment_payload` for full ``ExperimentSpec`` payloads.
* :mod:`repro.serving.scheduler` — :class:`ContinuousBatchingScheduler`, an
  asyncio event loop over the engine's one decode driver,
  :class:`~repro.engine.inference.ContinuousDecoder`: sequences retire the
  moment they finish and queued ragged prompts are admitted into the freed
  KV-cache slots.  Hardened with per-request lifecycle control —
  ``timeout_s`` deadlines (queued or mid-decode), :meth:`cancel`, dropped
  streams cancelling server-side — and a
  :class:`~repro.nn.prefix_cache.PrefixCache` so requests sharing a prompt
  head (system prompts) prefill only their unseen suffix.
* :mod:`repro.serving.fleet` — the multi-process serving fleet:
  :class:`FleetManager` launches N decode workers (each hosting the same
  decode driver at width 1) plus a separate experiment worker class over
  pluggable mailbox transports (in-proc queues for
  deterministic tests, ``multiprocessing`` pipes for real isolation), with
  per-worker heartbeat/health, automatic restart, in-flight request
  re-dispatch, and graceful drain.
* :mod:`repro.serving.server` — :class:`ServingServer`, the one stdlib
  asyncio HTTP front-end (``/generate`` with incremental token streaming,
  ``/experiment``, ``/stats``, ``/metrics`` in Prometheus or JSON form) over
  either service, the scheduler or the fleet, through a small protocol both
  implement; plus :class:`BackgroundServer` for tests and demos.
* :mod:`repro.serving.workload` — :class:`WorkloadSpec` synthetic traces
  (Poisson/bursty arrivals, log-normal lengths, shared-prefix tenant fleets)
  expanded deterministically by :func:`generate_workload` and replayed with
  :func:`replay_workload` — the input side of
  ``benchmarks/bench_latency_slo.py``.

Observability: the scheduler keeps every counter/histogram in a
:class:`~repro.obs.metrics.MetricsRegistry` and (by default) attaches a
per-request :class:`~repro.obs.tracing.Trace` surfaced as
``GenerationResult.timings``; see :mod:`repro.obs`.

.. code-block:: python

    from repro.serving import BackgroundServer, ContinuousBatchingScheduler, GenerationRequest

    async with ContinuousBatchingScheduler(session) as scheduler:
        result = await scheduler.submit(GenerationRequest(prompt=(5, 9, 2)))

    with BackgroundServer(ContinuousBatchingScheduler(session)) as background:
        ...  # HTTP requests against background.url
"""

from repro.serving.requests import (
    GenerationRequest,
    GenerationResult,
    RequestError,
    run_experiment_payload,
)
from repro.serving.scheduler import (
    ADMISSION_POLICIES,
    ContinuousBatchingScheduler,
    SchedulerConfig,
    TokenStream,
)
from repro.serving.server import BackgroundServer, ServingServer
from repro.serving.fleet import (
    FleetConfig,
    FleetManager,
    FleetStream,
    WorkerSpec,
)
from repro.serving.workload import (
    ARRIVAL_PROCESSES,
    WorkloadRequest,
    WorkloadSpec,
    generate_workload,
    replay_workload,
    summarize_results,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "BackgroundServer",
    "ContinuousBatchingScheduler",
    "FleetConfig",
    "FleetManager",
    "FleetStream",
    "GenerationRequest",
    "GenerationResult",
    "RequestError",
    "SchedulerConfig",
    "ServingServer",
    "TokenStream",
    "WorkerSpec",
    "WorkloadRequest",
    "WorkloadSpec",
    "generate_workload",
    "replay_workload",
    "run_experiment_payload",
    "summarize_results",
]
