"""Tests for SparseSession, the pipeline runners, and the redesigned registry."""

import numpy as np
import pytest

from repro.eval.harness import EvaluationSettings, evaluate_method
from repro.eval.perplexity import perplexity
from repro.nn.mlp import SwiGLUMLP
from repro.pipeline.runner import ExperimentResult, density_sweep
from repro.pipeline.session import SparseSession
from repro.sparsity.base import MLPMasks, SparsityMethod
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.registry import (
    REGISTRY,
    available_methods,
    create_method,
    describe_methods,
    register_method,
)


@pytest.fixture()
def settings() -> EvaluationSettings:
    return EvaluationSettings(max_eval_sequences=2, max_task_examples=2, calibration_sequences=2)


def _session(model, method, settings, eval_sequences, calibration_sequences=None, primary_task=None):
    return SparseSession(
        model,
        method,
        settings=settings,
        model_name="tiny",
        eval_sequences=eval_sequences,
        calibration_sequences=calibration_sequences,
        primary_task=primary_task,
    )


class TestSessionParity:
    """The session must reproduce the legacy harness numbers exactly."""

    def test_perplexity_matches_functional_api(self, trained_tiny_model, eval_sequences, settings):
        method = DynamicInputPruning(0.5)
        session = _session(trained_tiny_model, method, settings, eval_sequences)
        legacy = perplexity(trained_tiny_model, eval_sequences, DynamicInputPruning(0.5), max_sequences=2)
        assert session.perplexity() == pytest.approx(legacy)

    def test_evaluate_matches_evaluate_method(
        self, trained_tiny_model, eval_sequences, calibration_sequences, tiny_task, settings
    ):
        legacy = evaluate_method(
            trained_tiny_model,
            create_method("cats", target_density=0.5),
            eval_sequences,
            calibration_sequences=calibration_sequences,
            primary_task=tiny_task,
            settings=settings,
            model_name="tiny",
        )
        session = _session(
            trained_tiny_model,
            create_method("cats", target_density=0.5),
            settings,
            eval_sequences,
            calibration_sequences=calibration_sequences,
            primary_task=tiny_task,
        )
        result = session.evaluate()
        assert result.perplexity == pytest.approx(legacy.perplexity)
        assert result.accuracy == pytest.approx(legacy.accuracy)
        assert result.method_name == legacy.method_name == "cats"

    def test_stateful_method_reset_between_evaluations(self, trained_tiny_model, eval_sequences, settings):
        method = CacheAwareDIP(0.5, gamma=0.2)
        session = _session(trained_tiny_model, method, settings, eval_sequences)
        first = session.perplexity()
        assert method.stats.hits + method.stats.misses > 0
        session.reset()
        assert method.stats.hits + method.stats.misses == 0
        assert session.perplexity() == pytest.approx(first)

    def test_dense_session_by_default(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, None, settings, eval_sequences)
        assert session.method.name == "dense"
        assert np.isfinite(session.perplexity())

    def test_method_by_registry_name(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, "dip", settings, eval_sequences)
        assert session.method.name == "dip"

    def test_calibration_requires_sequences(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, create_method("cats", 0.5), settings, eval_sequences)
        with pytest.raises(ValueError, match="calibration"):
            session.perplexity()

    def test_collect_masks(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, DynamicInputPruning(0.5), settings, eval_sequences)
        masks = session.collect_masks(eval_sequences[:1])
        assert len(masks) == len(trained_tiny_model.blocks)

    def test_explicit_sequences_not_truncated_by_settings(
        self, trained_tiny_model, eval_sequences, settings
    ):
        session = _session(trained_tiny_model, DynamicInputPruning(0.5), settings, eval_sequences)
        explicit = session.perplexity(eval_sequences)  # all 6, despite max_eval_sequences=2
        legacy = perplexity(trained_tiny_model, eval_sequences, DynamicInputPruning(0.5))
        assert explicit == pytest.approx(legacy)
        assert session.perplexity() != pytest.approx(explicit)  # stored path stays capped

    def test_with_method_string_inherits_density(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, DynamicInputPruning(0.7), settings, eval_sequences)
        assert session.with_method("cats").method.target_density == 0.7

    def test_from_spec_respects_primary_task_name(self, tmp_path):
        from repro.experiments.artifacts import ArtifactCache
        from repro.pipeline.spec import DataSection, EvalSection, ExperimentSpec, ModelSection

        spec = ExperimentSpec(
            model=ModelSection(name="tiny", train_steps=5),
            data=DataSection(corpus_tokens=5_000, seq_len=24, task_examples=4),
            eval=EvalSection(
                max_eval_sequences=2, max_task_examples=2, calibration_sequences=2,
                primary_task="boolq",
            ),
            hardware=None,
        )
        session = SparseSession.from_spec(spec, cache=ArtifactCache(tmp_path))
        assert len(session.primary_task.examples[0].choices) == 2  # boolq, not 4-choice mmlu

    def test_hardware_only_session_rejects_model_metrics(self):
        from repro.pipeline.spec import ExperimentSpec, ModelSection

        session = SparseSession.from_spec(
            ExperimentSpec(model=ModelSection(name="tiny")), prepare=False
        )
        with pytest.raises(ValueError, match="prepared model"):
            session.perplexity()
        estimate = session.with_method("dip").throughput(n_tokens=6)
        assert estimate.tokens_per_second > 0


class _CountingCalibration(SparsityMethod):
    """A calibration-requiring method that counts calibrate() invocations."""

    name = "counting"
    requires_calibration = True

    def __init__(self, target_density: float = 0.5):
        super().__init__(target_density)
        self.calibrations = 0

    def calibrate(self, model, calibration_sequences) -> None:
        self.calibrations += 1

    def compute_masks(self, mlp, layer_index, x):
        return MLPMasks(down_mask=np.ones((x.shape[0], mlp.d_ffn), dtype=bool))


class TestShareCalibration:
    """``share_calibration`` fans out sessions that reuse one calibration."""

    def test_calibration_runs_once_and_is_shared(self, trained_tiny_model, calibration_sequences,
                                                 eval_sequences):
        method = _CountingCalibration()
        session = SparseSession(
            trained_tiny_model, method,
            calibration_sequences=calibration_sequences, eval_sequences=eval_sequences,
        )
        session.calibrate()
        copies = [session.share_calibration() for _ in range(3)]
        assert method.calibrations == 1
        for copy in copies:
            copy.perplexity(max_sequences=2)  # would re-calibrate if not shared
        assert method.calibrations == 1
        assert all(copy.method.calibrations == 1 for copy in copies)
        assert all(copy.method is not method for copy in copies)

    def test_worker_results_match_freshly_calibrated_session(
        self, trained_tiny_model, calibration_sequences, eval_sequences
    ):
        session = SparseSession(
            trained_tiny_model, "dip",
            calibration_sequences=calibration_sequences, eval_sequences=eval_sequences,
            model_name="tiny",
        )
        session.calibrate()
        copy = session.share_calibration()
        expected = session.perplexity(max_sequences=3)
        assert copy.perplexity(max_sequences=3) == pytest.approx(expected, abs=1e-12)


class TestRunners:
    def test_experiment_result_rows_and_table(self, trained_tiny_model, eval_sequences, settings):
        session = _session(trained_tiny_model, None, settings, eval_sequences)
        result = ExperimentResult(spec=None, evaluations=density_sweep(session, "dip", [0.5]))
        rows = result.rows()
        assert rows[0]["method"] == "dip"
        assert "dip" in result.table()

    def test_run_experiment_spec_hardware_is_authoritative(
        self, trained_tiny_model, eval_sequences, settings
    ):
        from repro.nn.model_zoo import get_model_spec
        from repro.pipeline.runner import run_experiment
        from repro.pipeline.spec import ExperimentSpec, HardwareSection, MethodSection, ModelSection

        spec = ExperimentSpec(
            model=ModelSection(name="tiny"),
            method=MethodSection(name="dip"),
            hardware=HardwareSection(dram_gb=0.25, simulated_tokens=6),
        )
        session = SparseSession(
            trained_tiny_model,
            None,
            model_spec=get_model_spec("tiny"),
            settings=settings,
            eval_sequences=eval_sequences,
        )
        # The session has no device of its own: the spec's hardware section must drive it.
        small = run_experiment(spec, session=session)
        large = run_experiment(spec.replace(hardware=spec.hardware.replace(dram_gb=1.0)), session=session)
        assert len(small.throughputs) == 1 and len(large.throughputs) == 1
        assert small.throughputs[0].tokens_per_second != large.throughputs[0].tokens_per_second

    def test_experiment_result_save(self, trained_tiny_model, eval_sequences, settings, tmp_path):
        session = _session(trained_tiny_model, None, settings, eval_sequences)
        result = ExperimentResult(spec=None, evaluations=density_sweep(session, "dip", [0.5]))
        path = result.save(tmp_path)
        assert path.exists()
        assert (tmp_path / "experiment.txt").exists()


class TestRegistryRedesign:
    def test_decorator_registration_and_session_use(self, trained_tiny_model, eval_sequences, settings):
        @register_method("test-keep-all", defaults={"verbose": False}, doc="Keeps every neuron.")
        class KeepAll(SparsityMethod):
            name = "test-keep-all"

            def __init__(self, target_density: float = 1.0, verbose: bool = False):
                super().__init__(target_density=target_density)
                self.verbose = verbose

            def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
                return MLPMasks(down_mask=np.ones((x.shape[0], mlp.d_ffn), dtype=bool))

        try:
            assert "test-keep-all" in available_methods()
            method = create_method("test-keep-all")
            assert isinstance(method, KeepAll) and not method.verbose
            session = _session(trained_tiny_model, "test-keep-all", settings, eval_sequences)
            dense = perplexity(trained_tiny_model, eval_sequences, None, max_sequences=2)
            assert session.perplexity() == pytest.approx(dense)
        finally:
            REGISTRY.unregister("test-keep-all")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method("dip")(DynamicInputPruning)

    def test_unknown_kwargs_raise_with_accepted_parameters(self):
        with pytest.raises(TypeError, match="accepted parameters"):
            create_method("dense", bogus=1)
        with pytest.raises(TypeError, match="target_density"):
            create_method("dip", predictor_hidden=8)

    def test_known_kwargs_still_pass(self):
        method = create_method("dip-ca", target_density=0.4, gamma=0.3)
        assert method.gamma == 0.3
        assert create_method("dejavu", predictor_hidden=8).predictor_hidden == 8

    def test_describe_metadata(self):
        info = describe_methods("dip-ca")
        assert info["name"] == "dip-ca"
        assert "gamma" in info["parameters"]
        everything = describe_methods()
        assert set(everything) == set(available_methods())
        assert everything["cats"]["requires_calibration"] is True
        # Function factories cannot know: depends on constructor arguments.
        assert everything["glu"]["requires_calibration"] is None
