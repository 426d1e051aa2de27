"""Tests for the declarative experiment spec layer."""

import json

import pytest

from repro.experiments.models import PreparationConfig
from repro.pipeline.spec import (
    DataSection,
    EvalSection,
    ExperimentSpec,
    HardwareSection,
    MethodSection,
    ModelSection,
    SpecError,
)
from repro.utils.units import GB


def _custom_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="custom",
        model=ModelSection(name="phi3-mini", seed=3, train_steps=100),
        data=DataSection(corpus_tokens=30_000, seq_len=32, task_examples=8),
        method=MethodSection(name="dip-ca", target_density=0.4, kwargs={"gamma": 0.3}),
        densities=(0.4, 0.6),
        eval=EvalSection(max_eval_sequences=4, primary_task="boolq", tasks=("piqa", "boolq")),
        hardware=HardwareSection(device="budget-phone", dram_gb=1.5, simulated_tokens=10),
    )


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = _custom_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = _custom_spec()
        assert ExperimentSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_hardware_none_round_trip(self):
        spec = ExperimentSpec(hardware=None)
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.hardware is None
        assert restored == spec

    def test_from_dict_partial_sections(self):
        spec = ExperimentSpec.from_dict({"method": {"name": "cats", "target_density": 0.6}})
        assert spec.method.name == "cats"
        assert spec.model.name == "phi3-medium"  # default

    def test_hardware_list_round_trip(self):
        spec = ExperimentSpec(
            name="sweep",
            hardware=[
                HardwareSection(dram_gb=2.0),
                HardwareSection(dram_gb=4.0, flash_gbps=2.0),
            ],
        )
        payload = spec.to_dict()
        assert isinstance(payload["hardware"], list) and len(payload["hardware"]) == 2
        restored = ExperimentSpec.from_json(json.dumps(payload))
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()
        assert restored.hardware_points() == spec.hardware_points()

    def test_hardware_list_from_dict_of_mappings(self):
        spec = ExperimentSpec.from_dict(
            {"hardware": [{"device": "apple-a18", "dram_gb": 2.0}, {"device": "budget-phone"}]}
        )
        assert spec.is_hardware_sweep()
        assert [p.device for p in spec.hardware_points()] == ["apple-a18", "budget-phone"]

    def test_hardware_single_vs_list_hash_distinct_but_stable(self):
        single = ExperimentSpec(hardware=HardwareSection(dram_gb=2.0))
        listed = ExperimentSpec(hardware=[HardwareSection(dram_gb=2.0)])
        assert single.content_hash() == single.replace().content_hash()  # deterministic
        assert single.content_hash() != listed.content_hash()  # distinct forms


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(SpecError, match="unknown model"):
            ModelSection(name="gpt-17")

    def test_unknown_method(self):
        with pytest.raises(SpecError, match="unknown sparsity method"):
            MethodSection(name="magic")

    def test_method_kwargs_validated_against_registry(self):
        with pytest.raises(SpecError, match="accepted parameters"):
            MethodSection(name="dip", kwargs={"predictor_hidden": 32})

    def test_density_out_of_range(self):
        with pytest.raises(SpecError, match="target_density"):
            MethodSection(name="dip", target_density=1.5)
        with pytest.raises(SpecError, match="lie in"):
            ExperimentSpec(densities=(0.5, 0.0))

    def test_unknown_task(self):
        with pytest.raises(SpecError, match="unknown task"):
            EvalSection(primary_task="jeopardy")

    def test_unknown_device_and_policy(self):
        with pytest.raises(SpecError, match="unknown device"):
            HardwareSection(device="abacus")
        with pytest.raises(SpecError, match="cache policy"):
            HardwareSection(cache_policy="random")

    def test_hardware_overrides_validated(self):
        with pytest.raises(SpecError, match="flash_gbps"):
            HardwareSection(flash_gbps=-1.0)
        with pytest.raises(SpecError, match="dram_gb"):
            HardwareSection(dram_gb=0.0)

    def test_empty_hardware_list_rejected(self):
        with pytest.raises(SpecError, match="at least one device point"):
            ExperimentSpec(hardware=[])

    def test_hardware_list_element_validated(self):
        with pytest.raises(SpecError, match=r"hardware\[1\]"):
            ExperimentSpec(hardware=[{"device": "apple-a18"}, {"dram": 2.0}])

    def test_hardware_wrong_type_rejected(self):
        with pytest.raises(SpecError, match="spec.hardware must be"):
            ExperimentSpec(hardware="apple-a18")

    def test_from_dict_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            ExperimentSpec.from_dict({"modle": {}})
        with pytest.raises(SpecError, match="unknown key"):
            ExperimentSpec.from_dict({"speculation": {"enabled": True}})

    def test_from_dict_unknown_section_key(self):
        with pytest.raises(SpecError, match="valid keys"):
            ExperimentSpec.from_dict({"eval": {"max_sequences": 4}})

    def test_negative_sizes(self):
        with pytest.raises(SpecError):
            DataSection(corpus_tokens=0)
        with pytest.raises(SpecError):
            EvalSection(max_eval_sequences=0)


class TestDerivation:
    def test_preparation_mapping(self):
        spec = _custom_spec()
        prep = spec.preparation()
        assert isinstance(prep, PreparationConfig)
        assert prep.corpus_tokens == 30_000
        assert prep.train_steps == 100
        assert prep.model_seed == 3
        assert prep.task_examples == 8

    def test_density_grid_fallback(self):
        assert ExperimentSpec(method=MethodSection(target_density=0.7)).density_grid() == (0.7,)
        assert _custom_spec().density_grid() == (0.4, 0.6)

    def test_build_method(self):
        spec = _custom_spec()
        method = spec.build_method()
        assert method.name == "dip-ca"
        assert method.target_density == 0.4
        assert method.gamma == 0.3
        override = spec.build_method(target_density=0.6)
        assert override.target_density == 0.6

    def test_device_spec_with_dram_override(self):
        hardware = HardwareSection(device="apple-a18", dram_gb=2.0)
        assert hardware.device_spec().dram_capacity_bytes == pytest.approx(2.0 * GB)

    def test_device_spec_with_flash_override(self):
        hardware = HardwareSection(device="apple-a18", dram_gb=2.0, flash_gbps=0.5)
        device = hardware.device_spec()
        assert device.flash_read_bandwidth == pytest.approx(0.5 * GB)
        assert hardware.label() == "apple-a18[dram=2GB,flash=0.5GB/s]"
        assert HardwareSection().label() == "apple-a18"

    def test_hardware_points_helpers(self):
        assert ExperimentSpec(hardware=None).hardware_points() == ()
        assert ExperimentSpec(hardware=None).primary_hardware() is None
        single = ExperimentSpec()
        assert single.hardware_points() == (single.hardware,)
        assert not single.is_hardware_sweep()
        sweep = single.with_hardware([HardwareSection(), HardwareSection(dram_gb=2.0)])
        assert sweep.is_hardware_sweep()
        assert sweep.primary_hardware() == HardwareSection()

    def test_eval_settings_mapping(self):
        settings = _custom_spec().eval.settings()
        assert settings.max_eval_sequences == 4
