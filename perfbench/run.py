"""The repository's benchmark: serving workloads on the phi3-medium sim model.

One run serves one workload through the real ``ContinuousBatchingScheduler``
(``phi3-medium`` sim config, random init, seed 0) for a timed window of
rounds, checks the outputs, and prints each metric by name with its unit.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

Usage, from the repository root::

    python3 perfbench/run.py --workload chat-poisson --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; each timed one is read from
its best round.  ``--trace 1`` reports the per-layer metrics: it alternates
untraced rounds with rounds traced through timing wrappers around the
layers' public functions (see ``tracer.py``), and writes the spans to
``perfbench/results/``.  The exit code is non-zero when a served greedy
output differs from ``SparseSession.generate`` or a round's lifecycle
counters do not balance.  See ``perfbench/README.md`` for the metrics and
why each workload exists.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS/OpenMP thread, so a run never competes with
# itself for the two vCPUs; and no ambient backend selection.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_BACKEND", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Traced rounds a ``--trace 1`` run serves however short ``--seconds`` is.
MIN_TRACED_ROUNDS = 2
#: Requests of round 0 whose greedy tokens are checked against ``generate``.
GREEDY_SAMPLE = 4

END_TO_END = {
    "setup_s": "s",
    "ttft_p50_ms": "ms",
    "ttft_p95_ms": "ms",
    "itl_p50_ms": "ms",
    "output_tok_per_s": "tok/s",
    "slo_attainment": "frac",
    "peak_rss_mb": "MB",
    "sim_tok_per_s": "tok/s",
    "sim_flash_mb_per_tok": "MB/tok",
}

PER_LAYER = {
    "sched.queue_wait_p50_ms": "ms",
    "sched.queue_wait_p95_ms": "ms",
    "sched.busy_frac": "frac",
    "sched.mean_step_batch": "seqs",
    "sched.decode_steps": "count",
    "engine.admit.calls": "count",
    "engine.admit.p50_ms": "ms",
    "engine.admit.self_ms": "ms",
    "engine.prefill_fwd_frac": "frac",
    "engine.step.calls": "count",
    "engine.step.p50_ms": "ms",
    "engine.step.p95_ms": "ms",
    "engine.step.self_ms": "ms",
    "nn.forward.self_ms": "ms",
    "nn.kv_append.ms": "ms",
    "nn.slot_view.ms": "ms",
    "prefix.lookups": "count",
    "prefix.hit_rate": "frac",
    "prefix.hit_tokens": "count",
    "prefix.lookup.ms": "ms",
    "prefix.insert.ms": "ms",
    "prefix.bytes": "bytes",
    "sparsity.masks.ms": "ms",
    "sparsity.forward.ms": "ms",
    "sparsity.mlp_time_share": "frac",
    "sparsity.realised_density": "frac",
    "sparsity.ca_hit_rate": "frac",
    "backend.gather_calls": "count",
    "backend.dense_calls": "count",
    "backend.plan_hit_rate": "frac",
    "backend.masked_mlp.ms": "ms",
    "hwsim.simulate.ms": "ms",
    "hwsim.synth_trace.ms": "ms",
    "hwsim.process_token.calls": "count",
    "hwsim.process_token.us_mean": "us",
    "hwsim.cache_hit_rate": "frac",
    "hwsim.mlp_byte_share": "frac",
    "loadgen.lag_p95_ms": "ms",
    "calib.probe_ms": "ms",
    "trace.overhead_frac": "frac",
    "fail_frac": "frac",
}


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------ end to end
def client_latencies(outcomes) -> Tuple[List[float], List[float]]:
    """TTFT per completed request and every inter-token gap, in seconds."""
    ttft = [o.token_times[0] - o.sent_s for o in outcomes if o.ok]
    gaps = [float(g) for o in outcomes if o.ok for g in np.diff(o.token_times)]
    return ttft, gaps


def slo_met(workload, outcome) -> bool:
    if not outcome.ok:
        return False
    ttft_ms = (outcome.token_times[0] - outcome.sent_s) * 1e3
    n = len(outcome.token_times)
    mean_itl_ms = (outcome.token_times[-1] - outcome.token_times[0]) / (n - 1) * 1e3 if n > 1 else 0.0
    return ttft_ms <= workload.slo_ttft_ms and mean_itl_ms <= workload.slo_mean_itl_ms


#: The end-to-end metrics read per round, and which round is the best.
ROUND_METRICS = {
    "ttft_p50_ms": min,
    "ttft_p95_ms": min,
    "itl_p50_ms": min,
    "output_tok_per_s": max,
}


def best_round(window) -> Dict[str, float]:
    """Each of :data:`ROUND_METRICS` as read on its best round of ``window``.

    Every round replays the same script, so the rounds differ by how fast
    the machine ran while they did; the best one is what the code costs.
    """
    rows = []
    for outcomes, wall in zip(window.rounds(), window.walls):
        ttft, gaps = client_latencies(outcomes)
        if ttft:  # a round whose every request failed has no latencies
            rows.append({
                "ttft_p50_ms": _pct(ttft, 50) * 1e3,
                "ttft_p95_ms": _pct(ttft, 95) * 1e3,
                "itl_p50_ms": _pct(gaps, 50) * 1e3,
                "output_tok_per_s": sum(len(o.tokens) for o in outcomes) / wall,
            })
    if not rows:
        return dict.fromkeys(ROUND_METRICS, 0.0)
    return {name: pick(row[name] for row in rows) for name, pick in ROUND_METRICS.items()}


def end_to_end(workload, window, setup_s: List[float], estimate) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        **best_round(window),
        "slo_attainment": _ratio(sum(slo_met(workload, o) for o in window.outcomes), len(window.outcomes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tok_per_s": estimate.tokens_per_second,
        "sim_flash_mb_per_tok": estimate.mean_flash_bytes / 1e6,
    }


# ------------------------------------------------------------- per layer
class LayerProbe:
    """The wrappers of a traced run plus what they observe on the way."""

    def __init__(self, session) -> None:
        from repro.backend import resolve_backend
        from repro.engine import throughput as throughput_module
        from repro.engine.inference import ContinuousBatch
        from repro.hwsim.cache import GroupCache
        from repro.hwsim.simulator import HWSimulator
        from repro.nn.attention import KVCache, KVCacheSlotView
        from repro.nn.prefix_cache import PrefixCache
        from repro.nn.transformer import CausalLM
        from repro.sparsity.base import masks_mlp_density

        from tracer import Tracer

        self.masks_mlp_density = masks_mlp_density
        self.density_weighted = 0.0
        self.mask_tokens = 0
        self.ca_stats: Dict[int, Any] = {}  # id -> the method's hit-stats objects seen
        self.simulations: List[Any] = []
        self.backend = resolve_backend(session.backend)
        self.has_plan_cache = callable(getattr(self.backend, "cache_stats", None))
        self.method = session.method
        #: Plan-cache counter increments over the traced rounds only.
        self.plan = dict.fromkeys(("gather_calls", "dense_calls", "plan_hits"), 0)

        t = self.tracer = Tracer()
        t.add(ContinuousBatch, "admit", "engine.admit")
        t.add(ContinuousBatch, "step", "engine.step")
        t.add(CausalLM, "forward_array", "nn.forward")
        t.add(KVCache, "slot_view", "nn.slot_view")
        t.add(KVCacheSlotView, "append", "nn.kv_append")
        t.add(PrefixCache, "lookup", "prefix.lookup")
        t.add(PrefixCache, "insert", "prefix.insert")
        t.add(session.method, "compute_masks", "sparsity.masks", observe=self._on_masks)
        t.add(session.method, "sparse_forward", "sparsity.forward")
        if self.has_plan_cache:
            # DIP hands the backend its GLU activations, so the masked MLP
            # kernel it runs is masked_down; both count as the kernel.
            t.add(self.backend, "masked_mlp", "backend.masked_mlp")
            t.add(self.backend, "masked_down", "backend.masked_mlp")
        t.add(HWSimulator, "simulate", "hwsim.simulate", observe=self._on_simulate)
        t.add(throughput_module, "synthesize_trace", "hwsim.synth_trace")
        t.add(GroupCache, "process_token", "hwsim.process_token")

    @contextlib.contextmanager
    def traced_round(self) -> Iterator[None]:
        """Install the wrappers for one round and count its plan-cache calls."""
        before = self.plan_stats()
        with self.tracer.installed():
            yield
        after = self.plan_stats()
        for key in self.plan:
            self.plan[key] += after.get(key, 0) - before.get(key, 0)

    def _on_masks(self, args, kwargs, masks) -> None:
        mlp, _, x = args[:3]
        self.density_weighted += self.masks_mlp_density(masks, x.shape[-1], mlp.d_ffn) * masks.n_tokens
        self.mask_tokens += masks.n_tokens
        stats = getattr(self.method, "stats", None)  # cache-aware methods only
        if stats is not None:
            self.ca_stats[id(stats)] = stats

    def _on_simulate(self, args, kwargs, result) -> None:
        self.simulations.append(result)

    def plan_stats(self) -> Dict[str, int]:
        return dict(self.backend.cache_stats()) if self.has_plan_cache else {}


def per_layer(untraced, traced, queue_waits: List[float], probe: LayerProbe, estimate,
              probe_ms: float) -> Dict[str, float]:
    """Counts and times per traced round; ``hwsim.*`` per simulator call."""
    spans = probe.tracer.summary()
    rounds = len(traced.walls)

    def total_ms(name: str, per: int = rounds) -> float:
        return spans.get(name, {}).get("total_s", 0.0) * 1e3 / per

    def self_ms(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) * 1e3 / rounds

    def calls(name: str, per: int = rounds) -> float:
        return spans.get(name, {}).get("calls", 0) / per

    def dur_ms(name: str, q: float) -> float:
        return _pct(spans.get(name, {}).get("durations", []), q) * 1e3

    stats = traced.stats
    steps = sum(s["decode_steps"] for s in stats)
    step_slots = sum(s["mean_step_batch"] * s["decode_steps"] for s in stats)
    prefix = [s["prefix_cache"] for s in stats]
    lookups = sum(p.get("lookups", 0) for p in prefix)
    hits = sum(p.get("hits", 0) for p in prefix)
    prefill_total = sum(p["prefill_tokens_total"] for p in prefix)
    prefill_fwd = sum(p["prefill_tokens_forwarded"] for p in prefix)
    plan = probe.plan
    ca_hits = sum(s.hits for s in probe.ca_stats.values())
    ca_total = ca_hits + sum(s.misses for s in probe.ca_stats.values())
    sim = probe.simulations[-1]
    static = sim.static_dram_bytes + sim.static_flash_bytes
    per_token = sim.mean_dram_bytes + sim.mean_flash_bytes
    outcomes = untraced.outcomes + traced.outcomes

    def busy_per_token(window) -> float:
        return statistics.median(_ratio(s["busy_seconds"], s["tokens_generated"]) for s in window.stats)

    return {
        "sched.queue_wait_p50_ms": _pct(queue_waits, 50) * 1e3,
        "sched.queue_wait_p95_ms": _pct(queue_waits, 95) * 1e3,
        "sched.busy_frac": _ratio(sum(s["busy_seconds"] for s in stats), traced.wall_s),
        "sched.mean_step_batch": _ratio(step_slots, steps),
        "sched.decode_steps": steps / rounds,
        "engine.admit.calls": calls("engine.admit"),
        "engine.admit.p50_ms": dur_ms("engine.admit", 50),
        "engine.admit.self_ms": self_ms("engine.admit"),
        "engine.prefill_fwd_frac": _ratio(prefill_fwd, prefill_total),
        "engine.step.calls": calls("engine.step"),
        "engine.step.p50_ms": dur_ms("engine.step", 50),
        "engine.step.p95_ms": dur_ms("engine.step", 95),
        "engine.step.self_ms": self_ms("engine.step"),
        "nn.forward.self_ms": self_ms("nn.forward"),
        "nn.kv_append.ms": total_ms("nn.kv_append"),
        "nn.slot_view.ms": total_ms("nn.slot_view"),
        "prefix.lookups": lookups / rounds,
        "prefix.hit_rate": _ratio(hits, lookups),
        "prefix.hit_tokens": sum(p.get("hit_tokens", 0) for p in prefix) / rounds,
        "prefix.lookup.ms": total_ms("prefix.lookup"),
        "prefix.insert.ms": total_ms("prefix.insert"),
        "prefix.bytes": max(p.get("bytes", 0) for p in prefix),
        "sparsity.masks.ms": total_ms("sparsity.masks"),
        "sparsity.forward.ms": total_ms("sparsity.forward"),
        "sparsity.mlp_time_share": _ratio(total_ms("sparsity.masks") + total_ms("sparsity.forward"),
                                          total_ms("nn.forward")),
        "sparsity.realised_density": _ratio(probe.density_weighted, probe.mask_tokens),
        "sparsity.ca_hit_rate": _ratio(ca_hits, ca_total),
        "backend.gather_calls": plan["gather_calls"] / rounds,
        "backend.dense_calls": plan["dense_calls"] / rounds,
        "backend.plan_hit_rate": _ratio(plan["plan_hits"], plan["gather_calls"] + plan["dense_calls"]),
        "backend.masked_mlp.ms": total_ms("backend.masked_mlp"),
        "hwsim.simulate.ms": total_ms("hwsim.simulate", 1),
        "hwsim.synth_trace.ms": total_ms("hwsim.synth_trace", 1),
        "hwsim.process_token.calls": calls("hwsim.process_token", 1),
        "hwsim.process_token.us_mean": _ratio(total_ms("hwsim.process_token", 1) * 1e3,
                                              calls("hwsim.process_token", 1)),
        "hwsim.cache_hit_rate": estimate.cache_hit_rate,
        "hwsim.mlp_byte_share": _ratio(per_token - static, per_token),
        "loadgen.lag_p95_ms": _pct([o.lag_s for o in untraced.outcomes], 95) * 1e3,
        "calib.probe_ms": probe_ms,
        "trace.overhead_frac": _ratio(busy_per_token(traced), busy_per_token(untraced)) - 1.0,
        "fail_frac": _ratio(sum(not o.ok for o in outcomes), len(outcomes)),
    }


# ------------------------------------------------------------------ main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS, round_script

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_s: List[float] = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        session, seconds = harness.setup(workload, args.seed)
        setup_s.append(seconds)
    script = round_script(workload, args.seed)

    if args.trace:
        probe = LayerProbe(session)
        untraced, traced = harness.Window(), harness.Window()
        queue_waits = harness.QueueWaits()
        started = harness.clock()
        # Untraced and traced rounds alternate, so both sides of
        # trace.overhead_frac meet the same phases of the machine.
        while len(traced.walls) < MIN_TRACED_ROUNDS or harness.clock() - started < args.seconds:
            untraced.serve(session, workload, script)
            with probe.traced_round():
                traced.serve(session, workload, script, sink=queue_waits)
        with probe.tracer.installed():
            estimate = session.throughput(trace_seed=args.seed)
        windows = [untraced, traced]
        metrics = per_layer(untraced, traced, queue_waits.values, probe, estimate,
                            harness.calibration_probe_ms())
        probe.tracer.write(
            RESULTS / f"trace-{workload.name}-seed{args.seed}.json",
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "traced_rounds": len(traced.walls), "metrics": metrics},
        )
        units = PER_LAYER
    else:
        window = harness.run_window(session, workload, script, args.seconds)
        windows = [window]
        metrics = end_to_end(workload, window, setup_s, session.throughput(trace_seed=args.seed))
        units = END_TO_END
    problems = [p for w in windows for p in harness.lifecycle_problems(w)]
    problems += harness.greedy_mismatches(session, windows[0].outcomes, GREEDY_SAMPLE)
    outcomes = [o for w in windows for o in w.outcomes]

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
