"""End-to-end integration tests: the full paper pipeline at miniature scale."""

import numpy as np
import pytest

from repro.engine.inference import SparseInferenceEngine
from repro.engine.throughput import throughput_for_method
from repro.eval.harness import EvaluationSettings
from repro.eval.operating_point import find_operating_point
from repro.eval.perplexity import dense_perplexity, perplexity
from repro.hwsim.device import APPLE_A18, DeviceSpec
from repro.hwsim.memory import build_layout
from repro.hwsim.simulator import HWSimulator, SimulationConfig
from repro.hwsim.trace import trace_from_masks
from repro.pipeline.runner import method_grid
from repro.pipeline.session import SparseSession
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.registry import create_method
from repro.training.distill import DistillationConfig, finetune_lora_distillation
from repro.training.lora import LoRAConfig, attach_mlp_adapters, fuse_adapters
from repro.utils.units import GB, MB


class TestAccuracyPipeline:
    def test_method_grid_reproduces_table1_structure(
        self, trained_tiny_model, eval_sequences, calibration_sequences
    ):
        """A miniature Table 1: dense best, oracle close, DIP beats DejaVu."""
        settings = EvaluationSettings(max_eval_sequences=3, calibration_sequences=2)
        session = SparseSession(
            trained_tiny_model,
            None,
            settings=settings,
            model_name="tiny",
            eval_sequences=eval_sequences,
            calibration_sequences=calibration_sequences,
        )
        results = method_grid(
            session,
            ["dense", "glu-oracle", "dip", "dejavu"],
            target_density=0.4,
            method_kwargs={"dejavu": {"predictor_hidden": 8, "predictor_epochs": 1}},
        )
        ppl = {r.method_name: r.perplexity for r in results}
        assert ppl["dense"] <= ppl["glu-oracle"] + 0.2
        assert ppl["glu-oracle"] <= ppl["dip"] + 0.05
        assert ppl["dip"] <= ppl["dejavu"] + 0.05

    def test_lora_distillation_recovers_accuracy(self, trained_tiny_model, tiny_splits, eval_sequences):
        """DIP+LoRA must not be worse than DIP alone (Table 1 rows DIP vs DIP+LoRA)."""
        method = DynamicInputPruning(0.35)
        before = perplexity(trained_tiny_model, eval_sequences[:2], method)
        adapters = attach_mlp_adapters(trained_tiny_model, LoRAConfig(rank=4, seed=0))
        finetune_lora_distillation(
            trained_tiny_model,
            method,
            adapters,
            tiny_splits.train,
            DistillationConfig(iterations=12, batch_size=2, learning_rate=3e-3, log_every=0),
        )
        import copy

        adapted = copy.deepcopy(trained_tiny_model)
        fuse_adapters(adapted, adapters)
        after = perplexity(adapted, eval_sequences[:2], method)
        assert after <= before * 1.05


class TestThroughputPipeline:
    def test_recorded_masks_through_hw_simulator(self, trained_tiny_model, eval_sequences):
        """Real tiny-model masks can drive the HW simulator end to end."""
        method = DynamicInputPruning(0.5)
        engine = SparseInferenceEngine(trained_tiny_model, method, record_masks=True)
        masks = engine.collect_masks(eval_sequences[:1])
        layout = build_layout(trained_tiny_model.config, method, kv_cache_seq_len=32)
        device = DeviceSpec(name="tiny-device", dram_capacity_bytes=3 * MB, dram_bandwidth=60 * GB, flash_read_bandwidth=1 * GB)
        trace = trace_from_masks(layout, masks)
        result = HWSimulator(layout, device).simulate(trace, SimulationConfig(cache_policy="lfu", warmup_tokens=2))
        assert result.tokens_per_second > 0
        assert 0 <= result.cache_hit_rate <= 1

    def test_operating_point_search_end_to_end(self, trained_tiny_model, eval_sequences):
        """Mini Table 2: coupled perplexity + simulated throughput operating point."""
        from repro.nn.model_zoo import get_model_spec

        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        densities = [0.4, 0.7]
        ppls = [perplexity(trained_tiny_model, eval_sequences[:2], DynamicInputPruning(d)) for d in densities]
        tputs = [
            throughput_for_method(DynamicInputPruning(d), spec, device, n_tokens=8).tokens_per_second
            for d in densities
        ]
        dense = dense_perplexity(trained_tiny_model, eval_sequences[:2])
        op = find_operating_point(densities, ppls, tputs, dense, ppl_increase=2.0, method_name="dip")
        assert op.feasible
        assert op.tokens_per_second in tputs

    def test_dip_ca_full_stack_improvement(self, trained_tiny_model, eval_sequences):
        """The paper's headline: DIP-CA trades a little perplexity for more throughput."""
        from repro.nn.model_zoo import get_model_spec

        spec = get_model_spec("phi3-mini")
        device = APPLE_A18.with_dram(spec.table2_dram_bytes)
        dip = DynamicInputPruning(0.5)
        dipca = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=0.4)
        tput_dip = throughput_for_method(dip, spec, device, n_tokens=10).tokens_per_second
        tput_ca = throughput_for_method(dipca, spec, device, n_tokens=10).tokens_per_second
        ppl_dip = perplexity(trained_tiny_model, eval_sequences[:2], dip)
        ppl_ca = perplexity(trained_tiny_model, eval_sequences[:2], dipca)
        assert tput_ca > tput_dip
        assert ppl_ca < ppl_dip * 1.25  # accuracy cost stays modest


class TestRegistryCoverage:
    @pytest.mark.parametrize("name", ["glu", "glu-oracle", "gate", "up", "cats", "dip", "dip-ca"])
    def test_every_method_runs_through_engine(self, name, trained_tiny_model, eval_sequences, calibration_sequences):
        method = create_method(name, target_density=0.7)
        if method.requires_calibration:
            method.calibrate(trained_tiny_model, calibration_sequences[:2])
        ppl = perplexity(trained_tiny_model, eval_sequences[:1], method)
        assert np.isfinite(ppl)
