"""Serving demo: host each serving service over HTTP and fire concurrent clients.

Hosts the one HTTP front-end (:class:`~repro.serving.server.ServingServer`,
through :class:`~repro.serving.server.BackgroundServer`) over a
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` on the tiny zoo
model with DIP active, fires N concurrent ``/generate`` requests from client
threads (half of them streaming token-by-token), prints every result plus the
``/stats`` payload and a sample ``/metrics`` scrape, and asserts that all
requests completed and a tokens/sec figure was recorded.  It then POSTs one
small ``/experiment`` and asserts it returns one row — the same smoke
contract the CI serving job relies on.

It then hosts a **fleet** the same way
(:class:`~repro.serving.fleet.manager.FleetManager`, two decode worker
processes over the pipe transport), repeats the client round, and prints the
per-worker ``/stats`` rows and a ``worker``-labelled ``/metrics`` sample,
asserting both workers came up and every request completed.

The server binds port 0 so the OS assigns a free ephemeral port; every client
reads the actual address back from ``BackgroundServer.url``.  The demo can
therefore never collide with another listener (parallel CI jobs, a dev server
on 8000, a second copy of itself).

Run:  PYTHONPATH=src python examples/serving_demo.py
Set REPRO_SERVING_DEMO_REQUESTS to change the client count (default 8).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np

from repro.nn.model_zoo import build_model
from repro.obs import MetricsRegistry
from repro.pipeline import SparseSession
from repro.serving import (
    BackgroundServer,
    ContinuousBatchingScheduler,
    FleetConfig,
    FleetManager,
    SchedulerConfig,
)

N_REQUESTS = int(os.environ.get("REPRO_SERVING_DEMO_REQUESTS", "8"))

#: One small experiment: DIP at 50% density, perplexity on two sequences.
EXPERIMENT_SPEC = {
    "name": "served-exp",
    "model": {"name": "tiny"},
    "method": {"name": "dip", "target_density": 0.5},
    "eval": {"max_eval_sequences": 2, "primary_task": None},
    "hardware": None,
}


def make_session() -> SparseSession:
    """A tiny-model session with DIP at 50% density (no training needed)."""
    model = build_model("tiny", seed=0)
    model.eval()
    rng = np.random.default_rng(0)
    vocab = model.config.vocab_size
    return SparseSession(
        model,
        "dip",
        model_name="tiny",
        calibration_sequences=rng.integers(0, vocab, size=(4, 16)),
        eval_sequences=rng.integers(0, vocab, size=(4, 12)),
    )


def _host_port(url: str) -> tuple:
    host, _, port = url.removeprefix("http://").rpartition(":")
    return host, int(port)


def request(url: str, method: str, path: str, payload: object = None) -> tuple:
    """One HTTP request: (status, body text)."""
    host, port = _host_port(url)
    connection = http.client.HTTPConnection(host, port, timeout=120)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    text = response.read().decode()
    connection.close()
    return response.status, text


def fire_request(url: str, index: int, results: list) -> None:
    stream = index % 2 == 0
    payload = {
        "prompt": [1 + index, 2, 3, 4][: 2 + index % 3],  # ragged prompt lengths
        "max_new_tokens": 4 + index % 5,                  # ragged decode budgets
        "temperature": 0.0,
        "stream": stream,
    }
    status, body = request(url, "POST", "/generate", payload)
    lines = [json.loads(line) for line in body.strip().split("\n")]
    results[index] = {"status": status, "mode": "stream" if stream else "single",
                      "prompt": payload["prompt"], "tokens": lines[-1]["tokens"]}


def client_round(url: str) -> list:
    """Fire N concurrent ``/generate`` clients, print their results, assert all succeeded."""
    results: list = [None] * N_REQUESTS
    threads = [
        threading.Thread(target=fire_request, args=(url, i, results)) for i in range(N_REQUESTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, result in enumerate(results):
        print(f"  request {index} [{result['mode']:>6}] prompt={result['prompt']} "
              f"-> tokens={result['tokens']}")
    assert all(result is not None and result["status"] == 200 for result in results)
    return results


def main() -> None:
    session = make_session()
    print(f"Starting the serving front-end on the tiny model ({N_REQUESTS} concurrent clients)...")
    scheduler = ContinuousBatchingScheduler(session, SchedulerConfig(max_batch_size=4, max_seq_len=64))
    with BackgroundServer(scheduler) as background:
        url = background.url
        print(f"  bound {url} (OS-assigned free port)")
        client_round(url)
        stats = json.loads(request(url, "GET", "/stats")[1])

        print(f"\nMetrics endpoint: {url}/metrics (Prometheus text; "
              f"append ?format=json for the JSON snapshot)")
        exposition = request(url, "GET", "/metrics")[1]
        interesting = ("serving_requests_completed_total", "serving_tokens_generated_total",
                       "serving_ttft_seconds_count", "serving_ttft_seconds_sum")
        print("Sample scrape:")
        for line in exposition.splitlines():
            if line.startswith(interesting):
                print(f"  {line}")
        assert "# TYPE serving_ttft_seconds histogram" in exposition

        print("\nPOST /experiment (runs on a calibration-sharing copy of the session)...")
        status, body = request(url, "POST", "/experiment", EXPERIMENT_SPEC)
        assert status == 200, body
        rows = json.loads(body)["rows"]
        print(f"  rows: {rows}")
        assert len(rows) == 1 and rows[0]["method"] == "dip"

    print(f"\nScheduler stats ({stats['method']} on {stats['model']}):")
    print(f"  requests completed : {stats['requests_completed']}")
    print(f"  tokens generated   : {stats['tokens_generated']}")
    print(f"  mean step batch    : {stats['mean_step_batch']:.2f} "
          f"(max_batch_size={stats['max_batch_size']})")
    print(f"  tokens/sec         : {stats['tokens_per_second']:.1f}")

    # The CI smoke contract: everything completed and throughput was recorded.
    assert stats["requests_completed"] >= N_REQUESTS
    assert stats["tokens_per_second"] > 0
    print("\nAll requests completed.")

    fleet_demo()


def fleet_demo() -> None:
    """The same client round against a 2-worker multi-process fleet."""
    print(f"\nStarting the fleet front-end (2 decode worker processes, pipe transport, "
          f"{N_REQUESTS} concurrent clients)...")
    config = FleetConfig(decode_workers=2, experiment_workers=0, transport="pipe")
    with BackgroundServer(FleetManager(config, registry=MetricsRegistry())) as background:
        url = background.url
        print(f"  bound {url} (OS-assigned free port)")
        client_round(url)

        time.sleep(0.6)  # let one heartbeat carry the per-worker counters over
        stats = json.loads(request(url, "GET", "/stats")[1])
        print("\nPer-worker stats:")
        for worker_id, worker in sorted(stats["workers"].items()):
            print(f"  {worker_id}: pid={worker['pid']} alive={worker['alive']} "
                  f"restarts={worker['restarts']} "
                  f"requests={worker.get('requests_total', 0.0):.0f} "
                  f"tokens={worker.get('tokens_total', 0.0):.0f}")

        exposition = request(url, "GET", "/metrics")[1]
        print("Sample worker-labelled scrape:")
        for line in exposition.splitlines():
            if line.startswith(("fleet_worker_up", "fleet_requests_completed_total")):
                print(f"  {line}")

    # The CI smoke contract, fleet edition: both workers up, everything served.
    assert set(stats["workers"]) == {"decode-0", "decode-1"}
    assert all(worker["alive"] for worker in stats["workers"].values())
    assert stats["requests_completed"] >= N_REQUESTS
    assert 'fleet_worker_up{worker="decode-0"} 1' in exposition
    print("\nAll fleet requests completed.")


if __name__ == "__main__":
    main()
