"""The benchmark's own tests.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's tier-1 collection:
they run the benchmark itself, which is slow and machine-bound.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_requests, open_loop_schedule, round_script  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_seed_yields_identical_inputs():
    for workload in WORKLOADS.values():
        assert round_script(workload, 7) == round_script(workload, 7)
        assert round_script(workload, 7) != round_script(workload, 8)
        assert make_requests(workload, 7, 16, stream=1) != make_requests(workload, 7, 16)


def test_stratified_inputs_keep_total_work_across_seeds():
    for workload in WORKLOADS.values():
        totals = {
            (sum(len(p) for p, _ in make_requests(workload, s, 32)), sum(n for _, n in make_requests(workload, s, 32)))
            for s in range(4)
        }
        assert len(totals) == 1, workload.name
    chat = WORKLOADS["chat-poisson"]
    schedule = open_loop_schedule(chat, 0)
    assert len(schedule) == chat.round_requests and schedule[0][0] == 0.0
    for prompt, max_new in make_requests(chat, 0, 50):
        assert len(prompt) + max_new <= 128  # the sim model's max_seq_len


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in spec["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_each_timed_metric_reads_its_best_round():
    def served(round_index: int, token_times: list) -> harness.Outcome:
        return harness.Outcome(round_index, 0, (1,), len(token_times), sent_s=0.0,
                               tokens=[1] * len(token_times), token_times=token_times, ok=True)

    # Round 0 has the earlier first token; round 1 the shorter gaps and the higher rate.
    window = harness.Window(
        outcomes=[served(0, [0.010, 0.016, 0.022]), served(1, [0.020, 0.022, 0.024])],
        stats=[{}, {}],
        walls=[1.0, 0.5],
    )
    best = run.best_round(window)
    assert best["ttft_p50_ms"] == pytest.approx(10.0)
    assert best["itl_p50_ms"] == pytest.approx(2.0)
    assert best["output_tok_per_s"] == pytest.approx(6.0)


def test_end_to_end_run_reports_every_metric():
    result = _result(_run("--workload", "ondevice-dipca", "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return sum(range(n))

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.add(Layer, "outer", "outer")
    tracer.add(Layer, "inner", "inner")
    with tracer.installed():
        assert Layer().outer(20000) == 2 * sum(range(20000))
    assert Layer.__dict__["outer"] is original
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    outer, inner = summary["outer"], summary["inner"]
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_greedy_check_flags_a_wrong_token():
    workload = WORKLOADS["chat-poisson"]
    session = harness.build_session(workload)
    prompt, _ = make_requests(workload, 0, 1)[0]
    outcomes, stats, _ = harness.serve_round(session, workload, [(prompt, 6)], clients=1)
    assert harness.greedy_mismatches(session, outcomes, 1) == []
    outcomes[0].tokens[-1] = (outcomes[0].tokens[-1] + 1) % 256
    assert len(harness.greedy_mismatches(session, outcomes, 1)) == 1
    assert stats["requests_submitted"] == stats["requests_completed"] == 1


def test_simulation_repeats_exactly():
    workload = WORKLOADS["ondevice-dipca"]
    first = harness.build_session(workload).throughput(trace_seed=5)
    second = harness.build_session(workload).throughput(trace_seed=5)
    assert first.summary() == second.summary()


def test_closed_loop_counts_repeat_exactly():
    exact = ("sched.decode_steps", "engine.prefill_fwd_frac", "prefix.lookups", "prefix.hit_rate",
             "prefix.hit_tokens", "hwsim.process_token.calls")
    first = _result(_run("--workload", "rag-prefix-closed", "--seed", "3", "--seconds", "1", "--trace", "1"))
    second = _result(_run("--workload", "rag-prefix-closed", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["prefix.hit_tokens"]["value"] > 0
    assert (HERE / "results" / "trace-rag-prefix-closed-seed3.json").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "chat-poisson", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
