"""Tests for the evaluation harness: perplexity, accuracy, operating points, reports."""

import numpy as np
import pytest

from repro.eval.accuracy import suite_accuracy, task_accuracy
from repro.eval.harness import EvaluationSettings, evaluate_method
from repro.eval.operating_point import find_operating_point, max_throughput_at_ppl_increase
from repro.eval.perplexity import dense_perplexity, perplexity
from repro.eval.reporting import format_series, format_table, results_to_rows
from repro.pipeline.runner import density_sweep, method_grid
from repro.pipeline.session import SparseSession
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.registry import create_method


class TestPerplexity:
    def test_dense_better_than_untrained(self, trained_tiny_model, tiny_model, eval_sequences):
        trained = dense_perplexity(trained_tiny_model, eval_sequences[:3])
        untrained = dense_perplexity(tiny_model, eval_sequences[:3])
        assert trained < untrained

    def test_sparse_never_better_than_dense_much(self, trained_tiny_model, eval_sequences):
        dense = dense_perplexity(trained_tiny_model, eval_sequences[:3])
        sparse = perplexity(trained_tiny_model, eval_sequences[:3], DynamicInputPruning(0.3))
        assert sparse >= dense - 0.1

    def test_max_sequences_respected(self, trained_tiny_model, eval_sequences):
        a = dense_perplexity(trained_tiny_model, eval_sequences, max_sequences=1)
        b = dense_perplexity(trained_tiny_model, eval_sequences[:1])
        assert a == pytest.approx(b)


class TestAccuracy:
    def test_accuracy_valid_and_deterministic(self, trained_tiny_model, tiny_task):
        accuracy = task_accuracy(trained_tiny_model, tiny_task)
        assert 0.0 <= accuracy <= 100.0
        assert accuracy == task_accuracy(trained_tiny_model, tiny_task)

    def test_max_examples(self, trained_tiny_model, tiny_task):
        accuracy = task_accuracy(trained_tiny_model, tiny_task, max_examples=2)
        assert accuracy in (0.0, 50.0, 100.0)

    def test_suite_accuracy_keys(self, trained_tiny_model, tiny_splits):
        from repro.data.tasks import build_task_suite

        suite = build_task_suite(["boolq", "piqa"], tokenizer=tiny_splits.tokenizer, n_examples=4, seed=0)
        result = suite_accuracy(trained_tiny_model, suite, max_examples=4)
        assert set(result) == {"boolq", "piqa"}

    def test_empty_task_raises(self, trained_tiny_model, tiny_task):
        import copy

        empty = copy.copy(tiny_task)
        empty.examples = []
        with pytest.raises(ValueError):
            task_accuracy(trained_tiny_model, empty)


class TestOperatingPoint:
    def test_picks_highest_throughput_within_budget(self):
        op = find_operating_point(
            densities=[0.3, 0.5, 0.7],
            perplexities=[8.0, 6.2, 6.05],
            throughputs=[1.5, 1.0, 0.7],
            dense_perplexity=6.0,
            ppl_increase=0.5,
        )
        assert op.feasible
        assert op.density == 0.5
        assert op.tokens_per_second == 1.0

    def test_infeasible(self):
        op = find_operating_point([0.3], [9.0], [2.0], dense_perplexity=6.0, ppl_increase=0.5)
        assert not op.feasible
        assert op.density is None
        assert np.isnan(op.summary()["density"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            find_operating_point([0.5], [6.0, 7.0], [1.0], 6.0, 0.5)

    def test_multiple_budgets(self):
        points = max_throughput_at_ppl_increase(
            densities=[0.3, 0.5, 0.7],
            perplexity_fn=lambda d: 6.0 + (0.7 - d),
            throughput_fn=lambda d: 1.0 / d,
            dense_perplexity=6.0,
            ppl_increases=(0.2, 0.5),
        )
        assert points[0.5].tokens_per_second >= points[0.2].tokens_per_second


class TestHarness:
    def test_evaluate_method_dense(self, trained_tiny_model, eval_sequences, tiny_task):
        result = evaluate_method(
            trained_tiny_model,
            None,
            eval_sequences,
            primary_task=tiny_task,
            settings=EvaluationSettings(max_eval_sequences=2, max_task_examples=4),
            model_name="tiny",
        )
        assert result.method_name == "dense"
        assert np.isfinite(result.perplexity)
        assert result.accuracy is not None
        assert result.row()["model"] == "tiny"

    def test_evaluate_method_requires_calibration_data(self, trained_tiny_model, eval_sequences):
        method = create_method("cats", target_density=0.5)
        with pytest.raises(ValueError):
            evaluate_method(trained_tiny_model, method, eval_sequences)

    def test_run_method_grid(self, trained_tiny_model, eval_sequences, calibration_sequences):
        settings = EvaluationSettings(max_eval_sequences=2, max_task_examples=2, calibration_sequences=2)
        session = SparseSession(
            trained_tiny_model,
            None,
            settings=settings,
            model_name="tiny",
            eval_sequences=eval_sequences,
            calibration_sequences=calibration_sequences,
        )
        results = method_grid(session, ["dense", "dip", "up"], target_density=0.5)
        assert [r.method_name for r in results] == ["dense", "dip", "up"]
        assert all(np.isfinite(r.perplexity) for r in results)

    def test_run_density_sweep_monotone(self, trained_tiny_model, eval_sequences):
        settings = EvaluationSettings(max_eval_sequences=2)
        session = SparseSession(
            trained_tiny_model, None, settings=settings, eval_sequences=eval_sequences
        )
        results = density_sweep(session, lambda d: DynamicInputPruning(d), densities=[0.3, 0.8])
        assert results[0].perplexity >= results[1].perplexity - 0.05


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"method": "dip", "ppl": 5.123456}, {"method": "cats", "ppl": 7.0}]
        text = format_table(rows, precision=2, title="Table X")
        assert "Table X" in text
        assert "5.12" in text and "cats" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_missing_value(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in text

    def test_format_series(self):
        text = format_series([0.4, 0.5], {"dip": [6.5, 6.1], "cats": [8.8, 7.2]}, x_label="density")
        assert "density" in text and "dip" in text

    def test_results_to_rows_pivot(self, trained_tiny_model, eval_sequences):
        settings = EvaluationSettings(max_eval_sequences=1)
        results = [
            evaluate_method(trained_tiny_model, None, eval_sequences, settings=settings, model_name=name)
            for name in ("model-a", "model-b")
        ]
        rows = results_to_rows(results, pivot="model")
        assert len(rows) == 1
        assert "model-a:per" in rows[0]
