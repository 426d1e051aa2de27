"""Fleet fault-injection smoke: SIGKILL a worker mid-stream, assert recovery.

The CI ``fleet-smoke`` job runs this standalone (no pytest).  It starts a
2-decode-worker fleet over the pipe transport, streams one long greedy
request, SIGKILLs the worker process serving it after a few tokens have
arrived, and asserts the crash is invisible to the client:

* the request is re-dispatched and the stream completes **token-identical**
  to a single-process ``SparseSession.generate`` on the same worker spec,
  with no duplicated or missing tokens;
* the dead worker slot restarts (new PID, reports ready);
* the recovered fleet serves fresh traffic with the same parity.

A SIGKILL race is possible (the decode can finish before the signal lands),
so the kill is retried a few times; the run only counts once a death was
actually observed mid-request.

Usage::

    PYTHONPATH=src python tools/fleet_smoke.py
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np

from repro.obs import MetricsRegistry
from repro.serving import GenerationRequest
from repro.serving.fleet import FleetConfig, FleetManager, build_worker_session

PROMPT = (5, 9, 2, 7)
MAX_NEW_TOKENS = 80
KILL_AFTER_TOKENS = 3
ATTEMPTS = 10


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def serving_worker_pid(fleet: FleetManager) -> "int | None":
    """PID of the decode worker with our request in flight (via /stats data)."""
    for worker in fleet.stats()["workers"].values():
        if worker["role"] == "decode" and worker["inflight"] > 0 and worker["alive"]:
            return worker["pid"]
    return None


def main() -> int:
    config = FleetConfig(decode_workers=2, experiment_workers=0, transport="pipe")

    print("computing single-process greedy reference ...")
    reference = build_worker_session(config.worker)
    sequence = reference.generate(np.asarray(PROMPT, dtype=np.int64), MAX_NEW_TOKENS,
                                  temperature=0.0)
    want = [int(t) for t in sequence[len(PROMPT):]]

    with FleetManager(config, registry=MetricsRegistry()) as fleet:
        print(f"fleet up: {sorted(fleet.stats()['workers'])}")
        for attempt in range(1, ATTEMPTS + 1):
            stream = fleet.stream(GenerationRequest(prompt=PROMPT, max_new_tokens=MAX_NEW_TOKENS))
            tokens = []
            killed_pid = None
            for token in stream:
                tokens.append(token)
                if len(tokens) == KILL_AFTER_TOKENS and killed_pid is None:
                    killed_pid = serving_worker_pid(fleet)
                    if killed_pid is not None:
                        os.kill(killed_pid, signal.SIGKILL)
                        print(f"attempt {attempt}: SIGKILLed worker pid {killed_pid} "
                              f"after {len(tokens)} tokens")
            result = stream.result(timeout=120)
            assert tokens == want, (
                f"streamed tokens diverged from single-process greedy decode:\n"
                f"  want {want}\n  got  {tokens}"
            )
            assert list(result.tokens) == want, "final result tokens diverged"
            if killed_pid is not None and result.timings["redispatches"] >= 1.0:
                break  # the kill landed mid-request and the fleet recovered
            print(f"attempt {attempt}: decode finished before the kill landed; retrying")
        else:
            raise AssertionError(f"could not land a mid-stream SIGKILL in {ATTEMPTS} attempts")
        print(f"re-dispatch recovered the stream: {len(tokens)} tokens, "
              f"{result.timings['redispatches']:.0f} re-dispatch(es), parity ok")

        stats = fleet.stats()
        assert stats["worker_deaths"] >= 1.0, stats
        assert stats["worker_restarts"] >= 1.0, stats
        wait_until(
            lambda: all(w["ready"] and w["pid"] != killed_pid
                        for w in fleet.stats()["workers"].values()),
            timeout=120, message="the killed slot to restart with a fresh pid",
        )
        print("dead slot restarted: "
              + ", ".join(f"{wid} pid={w['pid']} restarts={w['restarts']}"
                          for wid, w in sorted(fleet.stats()["workers"].items())))

        follow_up = fleet.generate(
            GenerationRequest(prompt=PROMPT, max_new_tokens=MAX_NEW_TOKENS), timeout=120
        )
        assert list(follow_up.tokens) == want, "post-recovery request diverged"
        print("recovered fleet serves fresh traffic with greedy parity")

    print("PASS: fleet smoke (SIGKILL mid-stream -> re-dispatch -> restart -> parity)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
