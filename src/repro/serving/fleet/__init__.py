"""Multi-process serving fleet: router + worker pool with health/restart.

The fleet promotes :mod:`repro.serving` from one asyncio process to a
router + worker-pool architecture:

* :mod:`~repro.serving.fleet.config` — :class:`WorkerSpec` (the JSON recipe
  a worker rebuilds its session from), :class:`WorkerConfig`, and
  :class:`FleetConfig` (pool sizes, transport, health knobs).
* :mod:`~repro.serving.fleet.exchange` — the mailbox abstraction: JSON
  message channels over in-proc queues (deterministic tests) or
  ``multiprocessing`` pipes (real process isolation), plus worker launch
  and kill handles.
* :mod:`~repro.serving.fleet.worker` — module-level worker entrypoints:
  decode workers own a calibrated session and host the engine's decode
  driver at width 1, streaming tokens; experiment workers serve
  ``/experiment`` payloads so heavy jobs can never block decode.
* :mod:`~repro.serving.fleet.manager` — :class:`FleetManager`: least-loaded
  routing, heartbeat supervision, automatic
  restart with in-flight request re-dispatch (greedy/seeded decoding is
  deterministic, so a retried request reproduces its tokens and duplicates
  are suppressed by index), and graceful drain.

The manager implements the service protocol of
:class:`~repro.serving.server.ServingServer`, so the one HTTP front-end
serves the fleet too, with per-worker ``/stats`` and ``worker``-labelled
``/metrics``.

.. code-block:: python

    from repro.serving import BackgroundServer, FleetConfig, FleetManager, GenerationRequest

    with FleetManager(FleetConfig(decode_workers=2, transport="pipe")) as fleet:
        result = fleet.generate(GenerationRequest(prompt=(5, 9, 2)))

    with BackgroundServer(FleetManager(FleetConfig())) as background:
        ...  # HTTP requests against background.url
"""

from repro.serving.fleet.config import (
    DECODE_ENTRYPOINT,
    EXPERIMENT_ENTRYPOINT,
    FleetConfig,
    TRANSPORTS,
    WorkerConfig,
    WorkerSpec,
    build_worker_session,
)
from repro.serving.fleet.exchange import Mailbox, TransportClosed, WorkerHandle, create_transport
from repro.serving.fleet.manager import FleetManager, FleetStream

__all__ = [
    "DECODE_ENTRYPOINT",
    "EXPERIMENT_ENTRYPOINT",
    "FleetConfig",
    "FleetManager",
    "FleetStream",
    "Mailbox",
    "TRANSPORTS",
    "TransportClosed",
    "WorkerConfig",
    "WorkerHandle",
    "WorkerSpec",
    "build_worker_session",
    "create_transport",
]
