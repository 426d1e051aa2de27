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
* :mod:`repro.serving.pool` — :class:`SessionPool`, calibrate once and fan
  out per-worker :class:`~repro.pipeline.session.SparseSession` clones.
* :mod:`repro.serving.server` — a stdlib asyncio HTTP front-end
  (``/generate`` with incremental token streaming, ``/experiment``,
  ``/stats``, ``/metrics`` in Prometheus or JSON form) plus
  :class:`BackgroundServer` for tests and demos.
* :mod:`repro.serving.fleet` — the multi-process serving fleet:
  :class:`FleetManager` launches N decode workers (each hosting the same
  decode driver at width 1) plus a separate experiment worker class over
  pluggable mailbox transports (in-proc queues for
  deterministic tests, ``multiprocessing`` pipes for real isolation), with
  per-worker heartbeat/health, automatic restart, in-flight request
  re-dispatch, and graceful drain; :class:`FleetServer` exposes the same
  four HTTP endpoints routed through the fleet.
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

    from repro.serving import ContinuousBatchingScheduler, GenerationRequest

    async with ContinuousBatchingScheduler(session) as scheduler:
        result = await scheduler.submit(GenerationRequest(prompt=(5, 9, 2)))
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
from repro.serving.pool import SessionPool
from repro.serving.server import BackgroundServer, ServingServer
from repro.serving.fleet import (
    FleetConfig,
    FleetManager,
    FleetServer,
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
    "FleetServer",
    "FleetStream",
    "GenerationRequest",
    "GenerationResult",
    "RequestError",
    "SchedulerConfig",
    "ServingServer",
    "SessionPool",
    "TokenStream",
    "WorkerSpec",
    "WorkloadRequest",
    "WorkloadSpec",
    "generate_workload",
    "replay_workload",
    "run_experiment_payload",
    "summarize_results",
]
