"""Compare freshly measured ``BENCH_*.json`` records against committed baselines.

The nightly CI job runs the full (non ``--fast``) perf benchmarks into a
scratch directory and then calls this script, which fails (exit 1) when any
tracked metric regressed more than ``--tolerance`` (default 20%) relative to
the baseline records committed at the repo root — the performance trajectory
gate.  Metrics are ratios (speedups, saved fractions), not wall times, so the
comparison is meaningful across runner generations.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py --output-dir bench-results
    python benchmarks/check_trajectory.py --new-dir bench-results

A bench file present in the new directory but missing from the baseline is
reported and skipped (first nightly after adding a benchmark); a *tracked*
file missing from the new directory is an error — the benchmark silently
stopped producing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: file name -> {dotted metric path: direction}.  ``"higher"`` metrics fail
#: when the new value drops more than the tolerance below the baseline.
#:
#: This table must cover *every* ratio leaf (``speedup``, ``speedup_vs_*``,
#: ``*_fraction``, ``*_rate``) of the committed baselines, and nothing else —
#: reprolint rule RL004 enforces the 1:1 mapping so the nightly gate can never
#: silently skip a benchmark metric.
TRACKED_METRICS = {
    "BENCH_batched_inference.json": {
        "methods.dense.speedup": "higher",
        "methods.dip.speedup": "higher",
    },
    "BENCH_serving.json": {
        "fleet.isolation.ttft_isolation_fraction": "higher",
        "fleet.scaling.speedup_vs_one_worker": "higher",
        "strategies.continuous.speedup_vs_lockstep": "higher",
        "strategies.continuous.speedup_vs_sequential": "higher",
        "strategies.lockstep.speedup_vs_sequential": "higher",
    },
    "BENCH_latency_slo.json": {
        "observability.speedup_vs_untraced": "higher",
        "slo.attainment_rate": "higher",
        "slo.goodput_fraction": "higher",
    },
    "BENCH_sparse_kernels.json": {
        "densities.d015.speedup": "higher",
        "densities.d025.speedup": "higher",
        "densities.d035.speedup": "higher",
        "densities.d050.speedup": "higher",
        "densities.d075.speedup": "higher",
        "single_token.speedup": "higher",
    },
    "BENCH_prefix_cache.json": {
        "methods.cats.prefill_saved_fraction": "higher",
        "methods.cats.speedup": "higher",
        "methods.dejavu.prefill_saved_fraction": "higher",
        "methods.dejavu.speedup": "higher",
        "methods.dense.prefill_saved_fraction": "higher",
        "methods.dense.speedup": "higher",
        "methods.dip-ca.prefill_saved_fraction": "higher",
        "methods.dip-ca.speedup": "higher",
        "methods.dip.prefill_saved_fraction": "higher",
        "methods.dip.speedup": "higher",
        "methods.gate.prefill_saved_fraction": "higher",
        "methods.gate.speedup": "higher",
        "methods.glu-oracle.prefill_saved_fraction": "higher",
        "methods.glu-oracle.speedup": "higher",
        "methods.glu.prefill_saved_fraction": "higher",
        "methods.glu.speedup": "higher",
        "methods.up.prefill_saved_fraction": "higher",
        "methods.up.speedup": "higher",
    },
}


def dig(payload: dict, path: str) -> float:
    value = payload
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(f"metric path '{path}' not found (missing '{key}')")
        value = value[key]
    return float(value)


def compare(baseline_dir: Path, new_dir: Path, tolerance: float) -> int:
    """Print a comparison table; return the number of regressed metrics."""
    regressions = 0
    for name, metrics in TRACKED_METRICS.items():
        baseline_path = baseline_dir / name
        new_path = new_dir / name
        if not new_path.exists():
            print(f"FAIL {name}: no fresh record at {new_path} (benchmark stopped writing it?)")
            regressions += 1
            continue
        if not baseline_path.exists():
            print(f"skip {name}: no committed baseline at {baseline_path} (new benchmark)")
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(new_path.read_text())
        for path, direction in metrics.items():
            old = dig(baseline, path)
            new = dig(fresh, path)
            assert direction == "higher", f"unknown direction {direction!r}"
            floor = old * (1.0 - tolerance)
            status = "ok" if new >= floor else "REGRESSED"
            if status != "ok":
                regressions += 1
            print(f"{status:>9}  {name}:{path}  baseline {old:.3f} -> new {new:.3f} "
                  f"(floor {floor:.3f} at {tolerance:.0%} tolerance)")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, default=_ROOT,
                        help=f"directory of committed baseline records (default: {_ROOT})")
    parser.add_argument("--new-dir", type=Path, required=True,
                        help="directory holding the freshly measured BENCH_*.json records")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed relative drop before a metric counts as regressed "
                             "(default: 0.2 = 20%%)")
    args = parser.parse_args(argv)
    regressions = compare(args.baseline_dir, args.new_dir, args.tolerance)
    if regressions:
        print(f"\nFAIL: {regressions} tracked metric(s) regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print("\nall tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
