"""The hardware simulator: traces + caches + device → per-token latency.

The cost model follows the paper's Appendix A: token-generation latency is
dominated by memory traffic, so per token

``latency = bytes_read_from_DRAM / dram_bandwidth + bytes_read_from_Flash / flash_bandwidth``

with NPU compute assumed to overlap.  Statically allocated bytes (attention,
embeddings, KV cache, predictors) are charged on every token; demand-loaded
MLP bytes are charged to DRAM on a cache hit and to Flash on a miss.  The
(small) extra DRAM write performed when a miss is installed in the cache is
ignored, as Flash bandwidth is 60x smaller and dominates miss cost.

Units: byte counts in, **seconds per token** out (reported as tokens/second
= 1 / mean latency, after ``warmup_tokens`` are dropped); bandwidths are
bytes/second.  What the model abstracts away: NPU compute time, memory-level
parallelism, and DRAM write-back cost.  Reproduces the latency model of
paper Appendix A behind Tables 2/6/7 and Figure 11.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.hwsim.cache import BeladyCache, build_cache
from repro.hwsim.device import DeviceSpec
from repro.hwsim.memory import WeightMemoryLayout
from repro.hwsim.trace import AccessTrace, GroupTrace
from repro.sparsity.base import topk_fraction_mask
from repro.sparsity.cache_aware import cache_aware_step
from repro.utils.config import ConfigBase


@dataclasses.dataclass(frozen=True)
class SimulationConfig(ConfigBase):
    """Options controlling one simulation run."""

    cache_policy: str = "lfu"
    #: Eq. 10 re-weighting factor applied during unit selection; 1.0 disables
    #: cache-aware masking (plain top-k on the trace scores).
    gamma: float = 1.0
    #: Tokens excluded from the throughput statistics while the cache warms up.
    warmup_tokens: int = 8

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.warmup_tokens < 0:
            raise ValueError("warmup_tokens must be non-negative")


@dataclasses.dataclass
class SimulationResult:
    """Per-token traffic and derived throughput metrics."""

    dram_bytes_per_token: np.ndarray
    flash_bytes_per_token: np.ndarray
    latency_per_token: np.ndarray
    static_dram_bytes: float
    static_flash_bytes: float
    cache_hits: int
    cache_misses: int
    warmup_tokens: int

    @property
    def n_tokens(self) -> int:
        return int(self.latency_per_token.size)

    @property
    def steady_state_slice(self) -> slice:
        start = min(self.warmup_tokens, max(0, self.n_tokens - 1))
        return slice(start, None)

    @property
    def mean_latency_s(self) -> float:
        return float(self.latency_per_token[self.steady_state_slice].mean())

    @property
    def tokens_per_second(self) -> float:
        return 1.0 / self.mean_latency_s

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_flash_bytes(self) -> float:
        return float(self.flash_bytes_per_token[self.steady_state_slice].mean())

    @property
    def mean_dram_bytes(self) -> float:
        return float(self.dram_bytes_per_token[self.steady_state_slice].mean())

    def summary(self) -> Dict[str, float]:
        return {
            "tokens_per_second": self.tokens_per_second,
            "mean_latency_s": self.mean_latency_s,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_dram_bytes": self.mean_dram_bytes,
            "mean_flash_bytes": self.mean_flash_bytes,
        }


class HWSimulator:
    """Replays access traces through the cache hierarchy of a device."""

    def __init__(self, layout: WeightMemoryLayout, device: DeviceSpec):
        self.layout = layout
        self.device = device

    # ----------------------------------------------------------------- public
    def simulate(self, trace: AccessTrace, config: SimulationConfig = SimulationConfig()) -> SimulationResult:
        """Run the trace through per-group caches and compute per-token latency."""
        n_tokens = trace.n_tokens
        dram_capacity = self.device.dram_capacity_bytes
        static_bytes = self.layout.static_bytes()
        static_dram = min(static_bytes, dram_capacity)
        static_flash = max(0.0, static_bytes - dram_capacity)

        allocation = self.layout.cache_allocation(dram_capacity)
        dram_bytes = np.full(n_tokens, static_dram, dtype=np.float64)
        flash_bytes = np.full(n_tokens, static_flash, dtype=np.float64)
        total_hits = 0
        total_misses = 0

        for group_trace in trace.groups:
            group = group_trace.group
            capacity = allocation.get((group.layer_index, group.matrix), 0)
            cache = build_cache(config.cache_policy, group.n_units, capacity)
            # Recorded and dense groups access a fixed set of units; score
            # traces select theirs per token with Algorithm 1's step.
            activity = group_trace.activity
            scores = group_trace.get_scores() if activity is None else None
            if activity is None and scores is None:
                activity = np.ones((n_tokens, group.n_units), dtype=bool)
            keep = group.keep_fraction if group.keep_fraction is not None else 1.0
            if isinstance(cache, BeladyCache):
                if config.gamma < 1.0:
                    raise ValueError(
                        "Belady's oracle needs a fixed future trace and cannot be combined "
                        "with cache-aware masking (gamma < 1)"
                    )
                cache.set_future(activity if scores is None else topk_fraction_mask(scores, keep))
            for token_index in range(n_tokens):
                if scores is None:
                    hits, misses = cache.process_token(activity[token_index])
                else:
                    _, hits, misses = cache_aware_step(cache, scores[token_index], keep, config.gamma)
                dram_bytes[token_index] += hits * group.unit_bytes
                flash_bytes[token_index] += misses * group.unit_bytes
                total_hits += hits
                total_misses += misses
            group_trace.release()

        latency = dram_bytes / self.device.dram_bandwidth + flash_bytes / self.device.flash_read_bandwidth
        return SimulationResult(
            dram_bytes_per_token=dram_bytes,
            flash_bytes_per_token=flash_bytes,
            latency_per_token=latency,
            static_dram_bytes=static_dram,
            static_flash_bytes=static_flash,
            cache_hits=total_hits,
            cache_misses=total_misses,
            warmup_tokens=min(config.warmup_tokens, max(0, n_tokens - 1)),
        )


def simulate_dense_baseline(
    layout: WeightMemoryLayout,
    device: DeviceSpec,
    n_tokens: int = 32,
    cache_policy: str = "lfu",
) -> SimulationResult:
    """Throughput of streaming the dense model (every MLP unit every token)."""
    groups = [GroupTrace(group=g, n_tokens=n_tokens) for g in layout.groups]
    trace = AccessTrace(n_tokens=n_tokens, groups=groups)
    simulator = HWSimulator(layout, device)
    return simulator.simulate(trace, SimulationConfig(cache_policy=cache_policy, warmup_tokens=min(4, n_tokens // 2)))
