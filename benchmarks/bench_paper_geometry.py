"""DIP and DIP-CA decode cost at paper geometry: numpy against the compiled decode MLP.

Builds a phi3-mini-shaped model (d_model 3072, d_ffn 8192, 32 query and 32
KV heads, vocab 256, float64, random init; 2 layers, 1 with ``--fast``) and
times one token at a time:

* **one layer's MLP**, through ``SparseInferenceEngine._mlp_override`` on
  numpy and through :func:`~repro.sparsity.decode_mlp.decode_mlp` on the
  compiled kernel, and
* **a whole decode step**, one token through a width-1 ``ContinuousBatch``
  (the served path) with its slot rewound to an 8-token prompt before each
  step: the one-call step (:mod:`repro.engine.decode_step`) on the kernel,
  and with it switched off the per-layer path, whose MLP runs on numpy.
  The attention and the head run compiled on both sides, so the step ratio
  isolates the MLP,

for numpy dense and for ``dip`` and ``dip-ca`` at MLP densities 0.25, 0.35
and 0.5, each on numpy and on the compiled kernel.  Every case runs
its tokens back to back inside each round and the cases alternate within a
round, after a warm-up round; the record holds the median and quartiles of
the per-round ms per token, and each kernel case's ``speedup_vs_numpy_dense``
is the median of its per-round ratios to numpy dense.  Beside them: the
process's peak RSS and, for one layer's MLP and one token, hwsim's
predicted bytes at 8 bytes per weight and the bytes the kernel reads,
``(2 * k_in * d_ffn + k_down * d_model) * 8``.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_paper_geometry.py [--check] [--fast]

It needs about 1 GB per layer and a C compiler.  ``--check`` exits non-zero
unless the kernel runs DIP's MLP at least 1.3x as fast as numpy dense at
density 0.5 and at least 1.8x at 0.35, or when the kernel is not built.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from repro.engine.inference import ContinuousBatch, SparseInferenceEngine  # noqa: E402
from repro.hwsim.memory import build_layout  # noqa: E402
from repro.nn.transformer import CausalLM, TransformerConfig  # noqa: E402
from repro.sparsity.base import DenseBaseline, keep_count  # noqa: E402
from repro.sparsity.cache_aware import CacheAwareDIP  # noqa: E402
from repro.sparsity.decode_mlp import DECODE_MLP, decode_mlp  # noqa: E402
from repro.sparsity.dip import DynamicInputPruning  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = _ROOT / "BENCH_paper_geometry.json"

#: The ``--check`` gate: the kernel's DIP MLP against numpy dense, per density.
SPEEDUP_GATES = {0.5: 1.3, 0.35: 1.8}

DENSITIES = (0.25, 0.35, 0.5)
PROMPT_TOKENS = 8
BYTES_PER_WEIGHT = 8  # float64


def paper_config(n_layers: int) -> TransformerConfig:
    """phi3-mini's MLP and attention geometry with a small vocabulary."""
    return TransformerConfig(
        vocab_size=256, d_model=3072, n_layers=n_layers, n_heads=32, n_kv_heads=32, d_ffn=8192,
        max_seq_len=PROMPT_TOKENS + 1,
    )


def cases(model: CausalLM) -> Dict[str, tuple]:
    """``label -> (engine, kernel on)``; each engine owns its method's state."""
    out: Dict[str, tuple] = {"dense/numpy": (SparseInferenceEngine(model, DenseBaseline()), False)}
    for name, cls in (("dip", DynamicInputPruning), ("dip-ca", CacheAwareDIP)):
        for density in DENSITIES:
            for path in ("numpy", "kernel"):
                engine = SparseInferenceEngine(model, cls(density))
                out[f"{name}/{density_key(density)}/{path}"] = (engine, path == "kernel")
    return out


def density_key(density: float) -> str:
    return f"d{int(round(density * 100)):03d}"


def mlp_runner(engine: SparseInferenceEngine, on: bool, xs: List[np.ndarray]) -> Callable[[], None]:
    block = engine.model.blocks[0]

    def run() -> None:
        for x in xs:
            if not on:
                engine._mlp_override(block, x)
            elif decode_mlp(engine.method, block.mlp, block.layer_index, x) is None:
                raise RuntimeError("the compiled decode MLP declined a case it must serve")

    return run


def step_runner(engine: SparseInferenceEngine, on: bool, tokens: List[int]) -> Callable[[], None]:
    batch = ContinuousBatch.from_engine(engine, max_batch_size=1, max_seq_len=PROMPT_TOKENS + 1)
    if not on:
        batch.fused_step = None  # the per-layer path: compiled attention and head, the MLP on numpy
    slots, _ = batch.admit([np.arange(PROMPT_TOKENS)])

    def run() -> None:
        for token in tokens:
            for cache in batch.caches:  # every step decodes position PROMPT_TOKENS
                cache.lengths[slots] = PROMPT_TOKENS
                cache.length = PROMPT_TOKENS
            batch.step(slots, [token])
        if on and batch._bound is None:
            raise RuntimeError("the one-call decode step declined a case it must serve")

    return run


def interleaved(runners: Dict[str, Callable[[], None]], rounds: int, per_round: int) -> Dict[str, List[float]]:
    """Per-round ms per token of every runner, after one warm-up round."""
    times: Dict[str, List[float]] = {label: [] for label in runners}
    for round_index in range(rounds + 1):
        for label, run in runners.items():
            start = time.perf_counter()
            run()
            if round_index:
                times[label].append((time.perf_counter() - start) * 1e3 / per_round)
    return times


def summarise(times: Dict[str, List[float]]) -> Dict[str, dict]:
    """The record's per-method tree: ms per token, and the kernel's speedups."""
    dense = np.asarray(times["dense/numpy"])
    tree: Dict[str, dict] = {}
    for label, series in times.items():
        values = np.asarray(series)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        entry = {"ms_per_token": float(median), "ms_q1": float(q1), "ms_q3": float(q3)}
        node = tree
        *path, leaf = label.split("/")
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = entry
        if leaf == "kernel":
            node["speedup_vs_numpy_dense"] = float(np.median(dense / values))
    return tree


def byte_counts(config: TransformerConfig) -> Dict[str, dict]:
    """One layer's MLP bytes per token: hwsim's prediction and what is read."""
    d, f = config.d_model, config.d_ffn
    dense_layout = build_layout(config, None, bits_per_weight=8 * BYTES_PER_WEIGHT)
    out: Dict[str, dict] = {
        "dense": {
            "hwsim": dense_layout.average_active_mlp_bytes() / config.n_layers,
            "numpy_read": 3.0 * d * f * BYTES_PER_WEIGHT,
        }
    }
    for density in DENSITIES:
        method = DynamicInputPruning(density)
        layout = build_layout(config, method, bits_per_weight=8 * BYTES_PER_WEIGHT)
        k_in, k_down = keep_count(method.input_keep_fraction, d), keep_count(method.neuron_keep_fraction, f)
        out[density_key(density)] = {
            "k_in": k_in,
            "k_down": k_down,
            "hwsim": layout.average_active_mlp_bytes() / config.n_layers,
            "kernel_read": float((2 * k_in * f + k_down * d) * BYTES_PER_WEIGHT),
        }
    return out


def run(fast: bool = False) -> dict:
    n_layers, rounds, per_round = (1, 5, 3) if fast else (2, 9, 4)
    config = paper_config(n_layers)
    started = time.perf_counter()
    model = CausalLM(config, seed=0)
    model.eval()
    build_s = time.perf_counter() - started
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=(1, config.d_model)) for _ in range(per_round)]
    tokens = [int(t) for t in rng.integers(0, config.vocab_size, size=per_round)]
    engines = cases(model)
    mlp = interleaved({label: mlp_runner(e, on, xs) for label, (e, on) in engines.items()}, rounds, per_round)
    step = interleaved({label: step_runner(e, on, tokens) for label, (e, on) in engines.items()}, rounds, per_round)
    return {
        "benchmark": "paper_geometry",
        "config": {
            "d_model": config.d_model, "d_ffn": config.d_ffn, "n_layers": n_layers, "n_heads": config.n_heads,
            "n_kv_heads": config.n_kv_heads, "vocab_size": config.vocab_size, "dtype": "float64",
            "rounds": rounds, "tokens_per_round": per_round, "prompt_tokens": PROMPT_TOKENS,
        },
        "host": {
            "python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), "blas_threads": 1,
        },
        "build_s": build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mlp": summarise(mlp),
        "step": summarise(step),
        "mlp_bytes_per_layer_token": byte_counts(config),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the kernel's DIP MLP beats numpy dense by "
                             + " and ".join(f"{g}x at {d}" for d, g in SPEEDUP_GATES.items()))
    parser.add_argument("--fast", action="store_true", help="one layer and fewer rounds (CI smoke)")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help=f"directory receiving {RESULT_PATH.name} (default: the repository root)")
    args = parser.parse_args(argv)
    output = RESULT_PATH
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        output = args.output_dir / RESULT_PATH.name
    if DECODE_MLP.load() is None:
        print("FAIL: the compiled decode MLP is not built (no C compiler?)", file=sys.stderr)
        return 1

    payload = run(fast=args.fast)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    cfg = payload["config"]
    print(f"paper geometry: d_model={cfg['d_model']} d_ffn={cfg['d_ffn']} layers={cfg['n_layers']} "
          f"(build {payload['build_s']:.1f} s, peak RSS {payload['peak_rss_mb']:.0f} MB)")
    for part in ("mlp", "step"):
        tree = payload[part]
        print(f"  {part}: numpy dense {tree['dense']['numpy']['ms_per_token']:.2f} ms/token")
        for name in ("dip", "dip-ca"):
            for density in DENSITIES:
                node = tree[name][density_key(density)]
                print(f"    {name:6s} @{density:.2f}  numpy {node['numpy']['ms_per_token']:7.2f}  "
                      f"kernel {node['kernel']['ms_per_token']:7.2f} ms/token  "
                      f"({node['speedup_vs_numpy_dense']:.2f}x numpy dense)")
    ok = True
    for density, gate in SPEEDUP_GATES.items():
        speedup = payload["mlp"]["dip"][density_key(density)]["speedup_vs_numpy_dense"]
        if speedup < gate:
            ok = False
            print(f"kernel DIP MLP at {density}: {speedup:.2f}x numpy dense, below the {gate}x gate",
                  file=sys.stderr)
    print(f"written to {output}")
    if args.check and not ok:
        print("FAIL: paper-geometry gate violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
