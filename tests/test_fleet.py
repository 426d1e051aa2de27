"""Tests of the multi-process serving fleet (``repro.serving.fleet``).

The load-bearing property throughout: workers rebuild their sessions from a
deterministic :class:`WorkerSpec` and decode greedily, so *any* fleet path —
clean dispatch, crash-and-re-dispatch, drain — must produce exactly the
tokens of a single-process ``SparseSession.generate`` on the same spec.
Fault-injection tests (worker killed before prefill, mid-decode, after the
last token but before the result frame) all assert that parity plus
no-duplicate streaming.  The inproc transport makes those deterministic; a
smaller set of pipe tests covers real process isolation and SIGKILL.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serving import (
    BackgroundServer,
    ContinuousBatchingScheduler,
    GenerationRequest,
    RequestError,
    SchedulerConfig,
)
from repro.serving.fleet import (
    DECODE_ENTRYPOINT,
    FleetConfig,
    FleetManager,
    FleetServer,
    WorkerConfig,
    WorkerSpec,
    build_worker_session,
    create_transport,
)
from repro.serving.fleet.exchange import TransportClosed, resolve_entrypoint
from repro.serving.fleet.worker import FAULT_BEFORE_PREFILL, FAULT_BEFORE_RUN

from timing_utils import scaled, wait_until

#: Every fleet in this module runs the same worker recipe, so one reference
#: session serves all parity assertions.
SPEC = WorkerSpec()

PROMPT = (5, 9, 2, 7)

EXPERIMENT_PAYLOAD = {
    "name": "served",
    "model": {"name": "tiny"},
    "method": {"name": "dip", "target_density": 0.5},
    "eval": {"max_eval_sequences": 2, "primary_task": None},
    "hardware": None,
}


@pytest.fixture(scope="module")
def reference_session():
    session = build_worker_session(SPEC)
    session.calibrate()
    return session


def expected_tokens(session, prompt, max_new_tokens):
    sequence = session.generate(np.asarray(prompt, dtype=np.int64), max_new_tokens, temperature=0.0)
    return [int(t) for t in sequence[len(prompt):]]


def make_fleet(**overrides):
    defaults = dict(experiment_workers=0, transport="inproc")
    defaults.update(overrides)
    return FleetManager(FleetConfig(**defaults), registry=MetricsRegistry())




# ------------------------------------------------------------- configuration
class TestConfig:
    def test_fleet_config_validation(self):
        with pytest.raises(ValueError, match="decode_workers"):
            FleetConfig(decode_workers=0)
        with pytest.raises(ValueError, match="transport"):
            FleetConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="routing"):
            FleetConfig(routing="random")
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            FleetConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5)
        with pytest.raises(ValueError, match="affinity_tokens"):
            FleetConfig(affinity_tokens=0)

    def test_worker_spec_validation(self):
        with pytest.raises(ValueError, match="target_density"):
            WorkerSpec(target_density=0.0)
        with pytest.raises(ValueError, match="eval_sequences"):
            WorkerSpec(eval_sequences=0)
        with pytest.raises(RequestError, match="unknown"):
            WorkerSpec.from_dict({"model": "tiny", "bogus": 1})

    def test_worker_config_validation(self):
        with pytest.raises(ValueError, match="role"):
            WorkerConfig(worker_id="w", role="supervisor")
        with pytest.raises(ValueError, match="worker_id"):
            WorkerConfig(worker_id="", role="decode")

    def test_json_round_trips(self):
        config = FleetConfig(decode_workers=3, routing="prefix_affinity", transport="pipe")
        assert FleetConfig.from_json(config.to_json()) == config
        worker = WorkerConfig(worker_id="decode-0", role="decode", spec=SPEC)
        assert WorkerConfig.from_json(worker.to_json()) == worker
        assert WorkerSpec.from_json(SPEC.to_json()) == SPEC

    def test_entrypoint_resolution_contract(self):
        assert callable(resolve_entrypoint(DECODE_ENTRYPOINT))
        with pytest.raises(ValueError, match="module-level"):
            resolve_entrypoint("no_colon_here")
        with pytest.raises(ValueError, match="module-level"):
            resolve_entrypoint("repro.serving.fleet.worker:Class.method")
        with pytest.raises(TypeError, match="callable"):
            resolve_entrypoint("repro.serving.fleet.worker:no_such_function")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            create_transport("carrier-pigeon")


# ------------------------------------------------------------ happy paths
class TestInprocFleet:
    def test_generate_parity_and_streaming(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 8)
        with make_fleet(decode_workers=2) as fleet:
            result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=8), timeout=60)
            assert list(result.tokens) == want
            assert result.finish_reason == "length"
            assert result.timings["redispatches"] == 0.0
            streamed = list(fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=8)))
            assert streamed == want
            stats = fleet.stats()
            assert stats["requests_completed"] == 2.0
            assert stats["requests_failed"] == 0.0
            assert stats["worker_deaths"] == 0.0

    def test_seeded_sampling_matches_session_and_scheduler(self, reference_session):
        """A seeded sampled request gives the same tokens through the session,
        one scheduler with every request in flight, and a 2-worker fleet."""
        prompts = [(5, 9, 2, 7), (3, 1), (8, 6, 4, 2, 11, 13, 1), (7,), (2, 4, 6, 8, 10)]
        requests = [
            GenerationRequest(prompt=p, max_new_tokens=6, temperature=0.8, seed=100 + i)
            for i, p in enumerate(prompts)
        ]
        want = []
        for request in requests:
            sequence = reference_session.generate(
                np.asarray(request.prompt, dtype=np.int64), 6, temperature=0.8, rng=request.seed
            )
            want.append([int(t) for t in sequence[len(request.prompt):]])

        async def serve():
            config = SchedulerConfig(max_batch_size=8)
            async with ContinuousBatchingScheduler(reference_session, config) as sched:
                return await asyncio.gather(*[sched.submit(r) for r in requests])

        assert [list(r.tokens) for r in asyncio.run(serve())] == want
        with make_fleet(decode_workers=2) as fleet:
            streams = [fleet.submit(r) for r in requests]
            assert [list(s.result(60).tokens) for s in streams] == want

    def test_overlong_prompt_rejected_before_dispatch(self):
        with make_fleet(decode_workers=1) as fleet:
            with pytest.raises(RequestError, match="no decode room"):
                fleet.submit(GenerationRequest(prompt=(1,) * 5000, max_new_tokens=4))
            assert fleet.stats()["requests_failed"] == 0.0

    def test_least_loaded_spreads_concurrent_requests(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 48)
        with make_fleet(decode_workers=2, routing="least_loaded") as fleet:
            first = fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=48))
            second = fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=48))
            assert list(first.result(60).tokens) == want
            assert list(second.result(60).tokens) == want

            def spread():
                workers = fleet.stats()["workers"]
                counts = [w.get("requests_total", 0.0) for w in workers.values()]
                return sorted(counts) == [1.0, 1.0]

            wait_until(spread, message="heartbeats to report one request per worker")

    def test_prefix_affinity_pins_shared_prompts(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 4)
        with make_fleet(decode_workers=2, routing="prefix_affinity") as fleet:
            for _ in range(4):
                result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=4), timeout=60)
                assert list(result.tokens) == want

            def pinned():
                workers = fleet.stats()["workers"]
                counts = [w.get("requests_total", 0.0) for w in workers.values()]
                return sorted(counts) == [0.0, 4.0]

            wait_until(pinned, message="all shared-prefix requests to land on one worker")

    def test_fault_injection_requires_opt_in(self):
        with make_fleet(decode_workers=1) as fleet:
            with pytest.raises(ValueError, match="allow_fault_injection"):
                fleet.submit(GenerationRequest(prompt=PROMPT), fault=FAULT_BEFORE_PREFILL)


# -------------------------------------------------------- crash / re-dispatch
class TestWorkerCrash:
    def test_kill_during_prefill_redispatches_with_parity(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 6)
        with make_fleet(decode_workers=2, allow_fault_injection=True) as fleet:
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=6), fault=FAULT_BEFORE_PREFILL
            )
            result = stream.result(60)
            assert list(result.tokens) == want
            assert result.timings["redispatches"] == 1.0
            stats = fleet.stats()
            assert stats["worker_deaths"] == 1.0
            assert stats["worker_restarts"] == 1.0
            assert stats["requests_redispatched"] == 1.0

    def test_kill_mid_decode_streams_without_duplicates(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 8)
        with make_fleet(decode_workers=2, allow_fault_injection=True) as fleet:
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=8), fault="after-token-2"
            )
            # The worker dies after streaming tokens 0..2; the retried request
            # reproduces them, the manager suppresses the replay by index, and
            # the client-visible stream is exactly the single-process output.
            assert list(stream) == want
            assert stream.result(60).timings["redispatches"] == 1.0

    def test_crash_with_result_pending_recovers_full_answer(self, reference_session):
        """Worker dies after the last token but before the result frame."""
        want = expected_tokens(reference_session, PROMPT, 5)
        with make_fleet(decode_workers=2, allow_fault_injection=True) as fleet:
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=5), fault="after-token-4"
            )
            assert list(stream) == want  # every token exactly once
            result = stream.result(60)
            assert list(result.tokens) == want
            assert result.finish_reason == "length"
            assert fleet.stats()["worker_deaths"] == 1.0

    def test_redispatch_budget_exhaustion_fails_explicitly(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 4)
        with make_fleet(decode_workers=1, allow_fault_injection=True, max_redispatch=0) as fleet:
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=4), fault=FAULT_BEFORE_PREFILL
            )
            with pytest.raises(RuntimeError, match="re-dispatched"):
                stream.result(60)
            assert fleet.stats()["requests_failed"] == 1.0
            # The slot restarted even though the request ran out of budget.
            wait_until(lambda: fleet.stats()["workers_alive"] == 1,
                       message="worker slot to restart")
            result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=4), timeout=60)
            assert list(result.tokens) == want

    def test_restart_budget_exhaustion_fails_leftovers_on_stop(self):
        fleet = make_fleet(decode_workers=1, allow_fault_injection=True, max_restarts=0)
        with fleet:
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=4), fault=FAULT_BEFORE_PREFILL
            )
            # The only worker is dead and never restarts: the re-dispatched
            # request parks in the pending queue until stop() fails it.
            wait_until(lambda: fleet.stats()["workers_alive"] == 0, message="worker death")
            assert fleet.stats()["worker_restarts"] == 0.0
            fleet.stop(drain=True, timeout=0.2)
            with pytest.raises(RuntimeError, match="fleet stopped"):
                stream.result(5)


# ------------------------------------------------------------ drain / cancel
class TestDrainAndCancel:
    def test_drain_completes_queued_requests(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 6)
        fleet = make_fleet(decode_workers=1)
        fleet.start()
        streams = [
            fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=6)) for _ in range(4)
        ]
        fleet.stop(drain=True)  # one worker serves its backlog serially
        for stream in streams:
            assert list(stream.result(5).tokens) == want
        with pytest.raises(RuntimeError, match="not running"):
            fleet.submit(GenerationRequest(prompt=PROMPT))

    def test_cancel_unknown_request(self):
        with make_fleet(decode_workers=1) as fleet:
            assert fleet.cancel("no-such-request") is False

    def test_cancel_parked_request_finishes_locally(self):
        with make_fleet(decode_workers=1, max_restarts=0) as fleet:
            state = next(iter(fleet._workers.values()))
            assert state.handle is not None
            state.handle.kill()
            wait_until(lambda: fleet.stats()["workers_alive"] == 0, message="worker death")
            stream = fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=4))
            with pytest.raises(TimeoutError):
                stream.result(0.05)  # parked: no live worker to serve it
            assert fleet.cancel(stream.request_id) is True
            result = stream.result(5)
            assert result.finish_reason == "cancelled"
            assert result.tokens == ()

    def test_cancel_inflight_request_terminates_stream(self):
        with make_fleet(decode_workers=1) as fleet:
            stream = fleet.submit(GenerationRequest(prompt=PROMPT, max_new_tokens=64))
            fleet.cancel(stream.request_id)
            result = stream.result(60)
            # Depending on when the cancel frame lands the decode either stops
            # early or completes; either way the stream must terminate cleanly.
            assert result.finish_reason in ("cancelled", "length")
            assert len(result.tokens) <= 64


# ----------------------------------------------------------------- experiments
class TestExperimentWorkers:
    def test_experiment_runs_on_separate_worker_class(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 6)
        with make_fleet(decode_workers=1, experiment_workers=1) as fleet:
            outcome = {}

            def decode():
                result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=6), timeout=60)
                outcome["tokens"] = list(result.tokens)

            thread = threading.Thread(target=decode)
            thread.start()
            report = fleet.experiment(EXPERIMENT_PAYLOAD, timeout=120)
            thread.join(60)
            assert not thread.is_alive()
            assert outcome["tokens"] == want
            assert report["rows"], "experiment must return evaluation rows"
            assert fleet.stats()["experiments"] == 1.0

    def test_experiment_without_experiment_workers(self):
        with make_fleet(decode_workers=1, experiment_workers=0) as fleet:
            with pytest.raises(RequestError, match="no experiment workers"):
                fleet.experiment(EXPERIMENT_PAYLOAD, timeout=5)

    def test_experiment_worker_crash_redispatches(self):
        with make_fleet(decode_workers=1, experiment_workers=1,
                        allow_fault_injection=True) as fleet:
            report = fleet.experiment(EXPERIMENT_PAYLOAD, timeout=120, fault=FAULT_BEFORE_RUN)
            assert report["rows"]
            stats = fleet.stats()
            assert stats["worker_deaths"] == 1.0
            assert stats["worker_restarts"] == 1.0

    def test_malformed_experiment_payload_is_a_request_error(self):
        with make_fleet(decode_workers=1, experiment_workers=1) as fleet:
            with pytest.raises(RequestError):
                fleet.experiment({"name": "broken", "model": {"name": "no-such-model"}},
                                 timeout=60)


# ------------------------------------------------------------- observability
class TestObservability:
    def test_stats_and_worker_labelled_metrics(self):
        registry = MetricsRegistry()
        config = FleetConfig(decode_workers=2, experiment_workers=0, transport="inproc")
        with FleetManager(config, registry=registry) as fleet:
            fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=4), timeout=60)
            stats = fleet.stats()
            assert set(stats["workers"]) == {"decode-0", "decode-1"}
            for worker in stats["workers"].values():
                assert worker["role"] == "decode"
                assert worker["alive"] and worker["ready"]
            text = registry.render_prometheus()
            assert 'fleet_worker_up{worker="decode-0"} 1' in text
            assert 'fleet_worker_up{worker="decode-1"} 1' in text
            assert "fleet_requests_completed_total 1" in text
            snapshot = registry.snapshot()
            assert "fleet_ttft_seconds" in snapshot
            assert "fleet_worker_inflight" in snapshot


# ------------------------------------------------------------- pipe transport
class TestPipeFleet:
    def test_pipe_parity_and_fault_recovery(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 6)
        with make_fleet(decode_workers=2, transport="pipe", allow_fault_injection=True) as fleet:
            result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=6), timeout=120)
            assert list(result.tokens) == want
            pids = {w["pid"] for w in fleet.stats()["workers"].values()}
            assert len(pids) == 2 and None not in pids  # real processes
            # os._exit(1) mid-decode: SIGKILL-grade death, no result frame.
            stream = fleet.submit(
                GenerationRequest(prompt=PROMPT, max_new_tokens=6), fault="after-token-1"
            )
            assert list(stream) == want
            assert stream.result(120).timings["redispatches"] == 1.0
            assert fleet.stats()["worker_deaths"] == 1.0

    def test_pipe_sigkill_restarts_worker(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 4)
        with make_fleet(decode_workers=1, transport="pipe") as fleet:
            state = next(iter(fleet._workers.values()))
            assert state.handle is not None
            old_pid = state.handle.pid
            state.handle.kill()  # real SIGKILL
            wait_until(
                lambda: fleet.stats()["worker_restarts"] == 1.0
                and all(w["ready"] for w in fleet.stats()["workers"].values()),
                timeout=60, message="SIGKILLed worker to restart",
            )
            new_pid = fleet.stats()["workers"]["decode-0"]["pid"]
            assert new_pid != old_pid
            result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=4), timeout=120)
            assert list(result.tokens) == want

    def test_transport_closed_while_reply_pending(self, reference_session):
        """Severing the pipe (not the process) counts as a worker death."""
        want = expected_tokens(reference_session, PROMPT, 4)
        with make_fleet(decode_workers=2, transport="pipe") as fleet:
            state = fleet._workers["decode-0"]
            assert state.handle is not None
            state.handle.mailbox.close()  # manager-side EOF; process still runs
            wait_until(lambda: fleet.stats()["worker_deaths"] >= 1.0, timeout=60,
                       message="severed pipe to register as a death")
            result = fleet.generate(GenerationRequest(prompt=PROMPT, max_new_tokens=4), timeout=120)
            assert list(result.tokens) == want


# -------------------------------------------------------------------- HTTP
class TestFleetServer:
    def test_http_endpoints(self, reference_session):
        want = expected_tokens(reference_session, PROMPT, 6)
        registry = MetricsRegistry()
        config = FleetConfig(decode_workers=2, experiment_workers=0, transport="inproc")
        with BackgroundServer(server_factory=FleetServer, fleet=config, registry=registry) as bg:
            body = json.dumps({"prompt": list(PROMPT), "max_new_tokens": 6, "stream": False})
            with urllib.request.urlopen(
                urllib.request.Request(bg.url + "/generate", data=body.encode(),
                                       headers={"Content-Type": "application/json"})
            ) as response:
                payload = json.loads(response.read())
            assert payload["tokens"] == want

            body = json.dumps({"prompt": list(PROMPT), "max_new_tokens": 6, "stream": True})
            with urllib.request.urlopen(
                urllib.request.Request(bg.url + "/generate", data=body.encode(),
                                       headers={"Content-Type": "application/json"})
            ) as response:
                lines = [json.loads(line) for line in response.read().splitlines() if line]
            assert [frame["token"] for frame in lines[:-1]] == want
            assert lines[-1]["done"] is True and lines[-1]["tokens"] == want

            with urllib.request.urlopen(bg.url + "/stats") as response:
                stats = json.loads(response.read())
            assert set(stats["workers"]) == {"decode-0", "decode-1"}

            with urllib.request.urlopen(bg.url + "/metrics") as response:
                metrics = response.read().decode()
            assert 'fleet_worker_up{worker="decode-0"} 1' in metrics

            request = urllib.request.Request(bg.url + "/experiment", data=b"{}",
                                             headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400  # no experiment workers in this fleet

    def test_http_validation_errors(self):
        config = FleetConfig(decode_workers=1, experiment_workers=0, transport="inproc")
        with BackgroundServer(server_factory=FleetServer, fleet=config,
                              registry=MetricsRegistry()) as bg:
            request = urllib.request.Request(bg.url + "/generate", data=b'{"prompt": []}',
                                             headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400


# ------------------------------------------------------------- mailbox layer
class TestExchange:
    def test_inproc_mailbox_round_trips_json_bytes(self):
        transport = create_transport("inproc")
        handle = transport.launch(
            "repro.serving.fleet.worker:decode_worker_main",
            WorkerConfig(worker_id="w0", role="decode", spec=SPEC).to_json(),
            name="exchange-test",
        )
        try:
            message = None
            deadline = time.time() + scaled(60)
            while time.time() < deadline:
                message = handle.mailbox.recv_json(timeout=0.5)
                if message is not None:
                    break
            assert message is not None and message["type"] == "ready"
            with pytest.raises(TypeError):
                handle.mailbox.send_json({"payload": object()})  # not JSON
        finally:
            handle.kill()
            handle.mailbox.close()
            handle.join(5)

    def test_closed_mailbox_raises_transport_closed(self):
        transport = create_transport("inproc")
        handle = transport.launch(
            "repro.serving.fleet.worker:decode_worker_main",
            WorkerConfig(worker_id="w1", role="decode", spec=SPEC).to_json(),
            name="exchange-close-test",
        )
        handle.kill()
        handle.join(5)
        with pytest.raises(TransportClosed):
            handle.mailbox.send_json({"type": "ping"})
