"""Throughput estimation at paper scale (drives Table 2, 6, 7 and Figure 11).

The paper's latency numbers come from its software HW simulator, not from the
GPU that produces the accuracy numbers.  This module mirrors that split: a
sparsity method's *memory plan* is applied to the paper-scale model geometry,
a synthetic activation trace with realistic temporal reuse is generated, and
the HW simulator converts the resulting DRAM/Flash traffic into tokens per
second.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.hwsim.device import DeviceSpec
from repro.hwsim.memory import MethodMemoryModel, WeightMemoryLayout
from repro.hwsim.simulator import HWSimulator, SimulationConfig, SimulationResult
from repro.hwsim.trace import SyntheticTraceConfig, synthesize_trace
from repro.nn.model_zoo import ModelSpec
from repro.sparsity.base import SparsityMethod


@dataclasses.dataclass
class ThroughputEstimate:
    """Throughput of one (method, model, device) configuration."""

    method_name: str
    model_name: str
    device_name: str
    tokens_per_second: float
    cache_hit_rate: float
    mean_flash_bytes: float
    mean_dram_bytes: float
    mlp_density: float
    simulation: Optional[SimulationResult] = None

    def summary(self) -> Dict[str, float]:
        return {
            "tokens_per_second": self.tokens_per_second,
            "cache_hit_rate": self.cache_hit_rate,
            "mlp_density": self.mlp_density,
            "mean_flash_bytes": self.mean_flash_bytes,
            "mean_dram_bytes": self.mean_dram_bytes,
        }


def throughput_for_method(
    method: Optional[SparsityMethod],
    model_spec: ModelSpec,
    device: DeviceSpec,
    bits_per_weight: float = 4.0,
    n_tokens: int = 64,
    cache_policy: str = "lfu",
    trace_config: Optional[SyntheticTraceConfig] = None,
    trace_seed: int = 0,
    kv_cache_seq_len: int = 2048,
) -> ThroughputEstimate:
    """Throughput of ``method`` on ``model_spec``'s paper-scale geometry.

    ``method=None`` gives the dense streaming baseline.  Cache-aware DIP uses
    its ``gamma`` for the selection re-weighting (Eq. 10); every other method
    selects units purely by the trace scores.
    """
    memory_model = (
        MethodMemoryModel.dense()
        if method is None
        else MethodMemoryModel.from_method(method, model_spec.paper_config, bits_per_weight)
    )
    layout = WeightMemoryLayout(
        config=model_spec.paper_config,
        memory_model=memory_model,
        bits_per_weight=bits_per_weight,
        kv_cache_seq_len=kv_cache_seq_len,
    )
    if trace_config is None:
        trace_config = SyntheticTraceConfig(n_tokens=n_tokens, seed=trace_seed)
    elif trace_config.n_tokens != n_tokens:
        trace_config = trace_config.replace(n_tokens=n_tokens)
    gamma = method.gamma if method is not None else 1.0
    simulation = SimulationConfig(cache_policy=cache_policy, gamma=gamma, warmup_tokens=min(8, n_tokens // 4))
    result = HWSimulator(layout, device).simulate(synthesize_trace(layout, trace_config), simulation)
    return ThroughputEstimate(
        method_name=method.name if method is not None else "dense",
        model_name=model_spec.name,
        device_name=device.name,
        tokens_per_second=result.tokens_per_second,
        cache_hit_rate=result.cache_hit_rate,
        mean_flash_bytes=result.mean_flash_bytes,
        mean_dram_bytes=result.mean_dram_bytes,
        mlp_density=layout.average_mlp_density(),
    )
