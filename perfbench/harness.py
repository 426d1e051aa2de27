"""Serving a workload through the real continuous-batching scheduler.

Everything here drives the program only through its public API: a
:class:`~repro.pipeline.session.SparseSession` over the ``phi3-medium`` sim
model, a :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` per
round, streamed requests whose tokens are timestamped as the client sees
them, and ``SparseSession.throughput`` for the device simulation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.nn.model_zoo import build_model, get_model_spec
from repro.pipeline.session import SparseSession
from repro.pipeline.spec import HardwareSection
from repro.serving import ContinuousBatchingScheduler, GenerationRequest, RequestError, SchedulerConfig
from repro.sparsity.registry import create_method

from workloads import DENSITY, MODEL_NAME, MODEL_SEED, Request, Workload, make_requests

clock = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """What the client saw of one request."""

    round: int
    index: int
    prompt: Tuple[int, ...]
    max_new_tokens: int
    #: When the request was due (open loop) or sent (closed loop).
    sent_s: float
    #: How late the sender ran behind the due time (0 in a closed loop).
    lag_s: float = 0.0
    tokens: List[int] = dataclasses.field(default_factory=list)
    token_times: List[float] = dataclasses.field(default_factory=list)
    ok: bool = False


class QueueWaits:
    """Trace sink keeping each finished request's queue wait (seconds).

    The scheduler hands every retired request's trace to its sink; this
    one keeps only ``queue_s`` of the trace's timings summary.
    """

    def __init__(self) -> None:
        self.values: List[float] = []

    def write(self, trace: Any) -> None:
        self.values.append(float(trace.timings()["queue_s"]))


@dataclasses.dataclass
class Window:
    """Rounds served one after another, each replaying the same script."""

    outcomes: List[Outcome] = dataclasses.field(default_factory=list)
    #: ``scheduler.stats()`` of each round, taken after the scheduler stopped.
    stats: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Wall seconds of each round, scheduler start to stop.
    walls: List[float] = dataclasses.field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return float(sum(self.walls))

    def serve(
        self,
        session: SparseSession,
        workload: Workload,
        script: Sequence[Any],
        sink: Optional[QueueWaits] = None,
    ) -> None:
        """Serve one more round of ``script`` on a fresh scheduler and record it."""
        outcomes, stats, wall = serve_round(
            session, workload, script, len(self.walls),
            open_loop=workload.loop == "open", clients=workload.clients, sink=sink,
        )
        self.outcomes.extend(outcomes)
        self.stats.append(stats)
        self.walls.append(wall)

    def rounds(self) -> List[List[Outcome]]:
        """The outcomes of each round, in round order."""
        per_round: List[List[Outcome]] = [[] for _ in self.walls]
        for outcome in self.outcomes:
            per_round[outcome.round].append(outcome)
        return per_round


def build_session(workload: Workload) -> SparseSession:
    """A fresh session: model, method and (own instance of the) backend."""
    model = build_model(MODEL_NAME, seed=MODEL_SEED)
    model.eval()
    hardware = HardwareSection()
    backend = type(get_backend(workload.backend))() if workload.backend else None
    return SparseSession(
        model,
        create_method(workload.method, target_density=DENSITY),
        model_spec=get_model_spec(MODEL_NAME),
        device=hardware.device_spec(),
        hardware=hardware,
        model_name=MODEL_NAME,
        backend=backend,
    )


async def _consume(
    scheduler: ContinuousBatchingScheduler, outcome: Outcome
) -> Outcome:
    request = GenerationRequest(
        prompt=outcome.prompt,
        max_new_tokens=outcome.max_new_tokens,
        request_id=f"r{outcome.round}-{outcome.index}",
    )
    try:
        stream = scheduler.stream(request)
        async for token in stream:
            outcome.token_times.append(clock())
            outcome.tokens.append(token)
    except (RequestError, RuntimeError):
        return outcome  # refused at submission, or failed server-side
    outcome.ok = stream.finish_reason == "length" and len(outcome.tokens) == outcome.max_new_tokens
    return outcome


async def _open_loop(
    scheduler: ContinuousBatchingScheduler, schedule: Sequence[Tuple[float, Request]], round_index: int
) -> List[Outcome]:
    tasks = []
    start = clock()
    for index, (due, (prompt, max_new)) in enumerate(schedule):
        due_s = start + due
        delay = due_s - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(round_index, index, prompt, max_new, sent_s=due_s, lag_s=clock() - due_s)
        tasks.append(asyncio.ensure_future(_consume(scheduler, outcome)))
    return list(await asyncio.gather(*tasks))


async def _closed_loop(
    scheduler: ContinuousBatchingScheduler, requests: Sequence[Request], clients: int, round_index: int
) -> List[Outcome]:
    script = iter(enumerate(requests))  # shared: each client takes the next request
    outcomes: List[Outcome] = []

    async def client() -> None:
        for index, (prompt, max_new) in script:
            outcome = Outcome(round_index, index, prompt, max_new, sent_s=clock())
            outcomes.append(await _consume(scheduler, outcome))

    await asyncio.gather(*(client() for _ in range(clients)))
    return sorted(outcomes, key=lambda o: o.index)


def serve_round(
    session: SparseSession,
    workload: Workload,
    requests: Sequence[Any],
    round_index: int = 0,
    *,
    open_loop: bool = False,
    clients: int = 1,
    sink: Optional[QueueWaits] = None,
) -> Tuple[List[Outcome], Dict[str, Any], float]:
    """Serve one round on a fresh scheduler: ``(outcomes, stats, wall_s)``."""

    async def main() -> Tuple[List[Outcome], Dict[str, Any], float]:
        started = clock()
        config = SchedulerConfig(max_batch_size=workload.max_batch_size)
        scheduler = ContinuousBatchingScheduler(session, config, trace_sink=sink)  # type: ignore[arg-type]
        async with scheduler:
            if open_loop:
                outcomes = await _open_loop(scheduler, requests, round_index)
            else:
                outcomes = await _closed_loop(scheduler, requests, clients, round_index)
        return outcomes, scheduler.stats(), clock() - started

    return asyncio.run(main())


def setup(workload: Workload, seed: int) -> Tuple[SparseSession, float]:
    """Build, calibrate and warm a session: ``(session, seconds)``.

    Warm-up serves requests from a stream of the seed that the measured
    window never replays, so lazy set-up and the gather plan cache fill
    before any timing without pre-loading the measured prompts.
    """
    started = clock()
    session = build_session(workload)
    session.calibrate()
    warmup = make_requests(workload, seed, workload.warmup_requests, stream=1)
    clients = workload.clients if workload.loop == "closed" else workload.max_batch_size
    serve_round(session, workload, warmup, clients=clients)
    return session, clock() - started


def run_window(session: SparseSession, workload: Workload, script: Sequence[Any], seconds: float) -> Window:
    """Replay ``script`` round after round until ``seconds`` have passed.

    At least one round is served, and the round under way when time runs
    out finishes.
    """
    window = Window()
    started = clock()
    while not window.walls or clock() - started < seconds:
        window.serve(session, workload, script)
    return window


# ----------------------------------------------------------------- checks
def greedy_mismatches(session: SparseSession, outcomes: Iterable[Outcome], sample: int) -> List[str]:
    """Compare the first ``sample`` requests of round 0 with ``SparseSession.generate``."""
    problems = []
    for outcome in sorted((o for o in outcomes if o.round == 0), key=lambda o: o.index)[:sample]:
        prompt = np.asarray(outcome.prompt, dtype=np.int64)
        full = session.generate(prompt, outcome.max_new_tokens, temperature=0.0)
        expected = [int(t) for t in np.asarray(full).reshape(-1)[len(prompt):]]
        if outcome.tokens != expected:
            problems.append(
                f"request {outcome.index}: served {outcome.tokens[:8]}... != generate {expected[:8]}..."
            )
    return problems


def lifecycle_problems(window: Window) -> List[str]:
    """Each round's counters must balance and agree with what clients saw."""
    problems = []
    for index, stats in enumerate(window.stats):
        submitted = stats["requests_submitted"]
        terminal = (stats["requests_completed"] + stats["requests_timed_out"]
                    + stats["requests_cancelled"] + stats["requests_failed"])
        if submitted != terminal:
            problems.append(f"round {index}: submitted {submitted} != terminal {terminal}")
        completed = sum(1 for o in window.outcomes if o.round == index and o.ok)
        if completed != stats["requests_completed"]:
            problems.append(
                f"round {index}: clients saw {completed} completions, scheduler counted "
                f"{stats['requests_completed']}"
            )
    return problems


def calibration_probe_ms(repeats: int = 15) -> float:
    """Median time of a fixed numpy-plus-interpreter workload (ms).

    Recorded with every run, so a slow vCPU shows in the record rather than
    in a verdict.
    """
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((96, 384))
    x = rng.standard_normal((8, 96))
    times = []
    for _ in range(repeats):
        started = clock()
        total = 0.0
        for _ in range(200):
            h = np.maximum(x @ weights, 0.0)
            total += float(h.sum())
        times.append(clock() - started)
    return float(np.median(times)) * 1e3
