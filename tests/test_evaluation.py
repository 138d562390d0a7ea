"""Metrics, sweep harness, and results tables."""
import dataclasses

import numpy as np
import pytest

from speedcast import evaluation
from speedcast.errors import InvalidConfigError
from speedcast.evaluation import (
    RESULTS_HEADER,
    SweepSpec,
    INFERENCE_REPEATS,
    evaluate,
    metrics_from_predictions,
    predict,
    run_ablation,
    write_results_table,
)
from speedcast.model import VARIANTS, init_params, model_forward
from speedcast.seeding import split_seed
from speedcast.train import TrainConfig
from speedcast.types import CategoryQuota

from conftest import TINY_QUOTA


class TestMetrics:
    def test_hand_worked_confusion(self):
        labels = np.array([0, 0, 1, 2, 3, 3])
        preds = np.array([0, 1, 1, 2, 3, 0])
        m = metrics_from_predictions(preds, labels)
        assert m.confusion[0, 0] == 1 and m.confusion[0, 1] == 1
        assert m.recalls[0] == pytest.approx(50.0)
        assert m.recalls[1] == pytest.approx(100.0)
        assert m.recalls[3] == pytest.approx(50.0)
        assert m.accuracy == pytest.approx(100.0 * 4 / 6)
        assert m.total == 6

    def test_absent_class_gives_none_recall_with_warning(self):
        labels = np.array([0, 1, 1])
        preds = np.array([0, 1, 1])
        with pytest.warns(UserWarning):
            m = metrics_from_predictions(preds, labels)
        assert m.recalls[2] is None and m.recalls[3] is None
        assert m.accuracy == pytest.approx(100.0)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidConfigError):
            metrics_from_predictions(np.empty(0, dtype=int), np.empty(0, dtype=int))

    def test_evaluate_matches_predict(self, small_dataset, tiny_model_config):
        import dataclasses

        cfg = dataclasses.replace(
            tiny_model_config, T=small_dataset.T, FT=small_dataset.FT, K=1
        )
        params = init_params(cfg, seed=0)
        feats, mask, labels = small_dataset.subset(small_dataset.test_idx[:20])
        m = evaluate(params, feats, mask, labels)
        preds = predict(params, feats, mask)
        assert m.accuracy == pytest.approx(100.0 * (preds == labels).mean())

    def test_batched_predict_matches_single_batch(self, small_dataset, tiny_model_config, monkeypatch):
        import dataclasses

        cfg = dataclasses.replace(
            tiny_model_config, T=small_dataset.T, FT=small_dataset.FT, K=1
        )
        params = init_params(cfg, seed=0)
        feats, mask, _ = small_dataset.subset(small_dataset.test_idx[:10])
        monkeypatch.setattr(evaluation, "PREDICT_BATCH", 3)
        batched = predict(params, feats, mask)
        monkeypatch.setattr(evaluation, "PREDICT_BATCH", 100)
        np.testing.assert_array_equal(batched, predict(params, feats, mask))


def _spy_on_model_forward(monkeypatch):
    """Record (features, params, probs) of every `model_forward` call `predict` makes."""
    calls = []
    real = evaluation.model_forward

    def spy(features, mask, params, *rest, **options):
        out = real(features, mask, params, *rest, **options)
        calls.append((features, params, out[0]))
        return out

    monkeypatch.setattr(evaluation, "model_forward", spy)
    return calls


class TestFloat32Predict:
    """`predict` runs in float32, rescores near-ties in float64, and equals the float64 argmax."""

    @staticmethod
    def _model(small_dataset, tiny_model_config, variant="full", K=1):
        cfg = dataclasses.replace(tiny_model_config, T=small_dataset.T, FT=small_dataset.FT, K=K, variant=variant)
        feats, mask, _ = small_dataset.subset(small_dataset.test_idx)
        return init_params(cfg, seed=0), feats, mask

    @staticmethod
    def _float64_argmax(params, feats, mask):
        return model_forward(feats, mask, params)[0].argmax(axis=1)

    @staticmethod
    def _tie_top_classes(params, offset):
        """Make classes 0 and 1 the top two of every clip, their logits `offset` apart."""
        c = params.classifier
        c.w_out[:, 1] = c.w_out[:, 0]
        c.b_out[:] = [10.0, 10.0 + offset, 0.0, 0.0]

    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_float64_argmax(self, small_dataset, tiny_model_config, variant, K):
        params, feats, mask = self._model(small_dataset, tiny_model_config, variant, K)
        np.testing.assert_array_equal(predict(params, feats, mask), self._float64_argmax(params, feats, mask))

    @pytest.mark.parametrize("variant", ["full", "base"])
    def test_bulk_pass_computes_in_float32(self, small_dataset, tiny_model_config, monkeypatch, variant):
        """Features, parameters and probabilities of the bulk pass stay float32 under either promotion rule."""
        params, feats, mask = self._model(small_dataset, tiny_model_config, variant)
        calls = _spy_on_model_forward(monkeypatch)
        predict(params, feats, mask)
        bulk = [call for call in calls if call[1] is not params]
        assert len(bulk) == -(-len(feats) // evaluation.PREDICT_BATCH)
        for features, fast, probs in bulk:
            assert features.dtype == np.float32 and probs.dtype == np.float32
            assert {a.dtype for _, a in fast.named_arrays()} == {np.dtype(np.float32)}

    def test_exact_ties_are_all_rescored(self, small_dataset, tiny_model_config, monkeypatch):
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        self._tie_top_classes(params, 0.0)
        calls = _spy_on_model_forward(monkeypatch)
        preds = predict(params, feats, mask)
        rescored = [features for features, p, _ in calls if p is params]
        np.testing.assert_array_equal(np.concatenate(rescored), feats)
        np.testing.assert_array_equal(preds, self._float64_argmax(params, feats, mask))

    def test_every_pass_keeps_no_cache(self, small_dataset, tiny_model_config, monkeypatch):
        """The float32 bulk pass and the float64 rescoring pass both ask for no backward cache."""
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        self._tie_top_classes(params, 0.0)  # every clip is rescored
        options = []
        real = evaluation.model_forward

        def spy(*args, **kwargs):
            options.append((args[2] is params, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "model_forward", spy)
        predict(params, feats, mask)
        assert {rescore for rescore, _ in options} == {False, True}
        assert all(kwargs == {"keep_cache": False} for _, kwargs in options)

    def test_near_ties_take_the_float64_class(self, small_dataset, tiny_model_config):
        """A 1e-9 logit gap vanishes in float32 (a tie, argmax 0) but picks class 1 in float64."""
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        self._tie_top_classes(params, 1e-9)
        preds = predict(params, feats, mask)
        np.testing.assert_array_equal(preds, self._float64_argmax(params, feats, mask))
        assert (preds == 1).all()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_float32_overflow_is_rescored(self, small_dataset, tiny_model_config):
        """A bias past the float32 maximum makes the float32 probabilities NaN; float64 still ranks it."""
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        params.classifier.b_out[2] = 1e39
        fast = params.clone(np.float32)
        assert np.isnan(model_forward(feats.astype(np.float32), mask, fast)[0]).all()
        preds = predict(params, feats, mask)
        np.testing.assert_array_equal(preds, self._float64_argmax(params, feats, mask))
        assert (preds == 2).all()

    def test_rescoring_sees_only_the_near_tie_rows(self, small_dataset, tiny_model_config, monkeypatch):
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        top = np.sort(model_forward(feats.astype(np.float32), mask, params.clone(np.float32))[0], axis=1)
        margins = top[:, -1] - top[:, -2]
        monkeypatch.setattr(evaluation, "RESCORE_MARGIN", float(np.median(margins)))
        monkeypatch.setattr(evaluation, "PREDICT_BATCH", 7)
        near = np.flatnonzero(margins < evaluation.RESCORE_MARGIN)
        assert 0 < len(near) < len(feats)
        calls = _spy_on_model_forward(monkeypatch)
        preds = predict(params, feats, mask)
        rescored = [features for features, p, _ in calls if p is params]
        np.testing.assert_array_equal(np.concatenate(rescored), feats[near])
        np.testing.assert_array_equal(preds, self._float64_argmax(params, feats, mask))

    def test_masters_stay_bit_identical_float64(self, small_dataset, tiny_model_config):
        params, feats, mask = self._model(small_dataset, tiny_model_config)
        self._tie_top_classes(params, 1e-9)
        before = {name: a.tobytes() for name, a in params.named_arrays()}
        predict(params, feats, mask)
        after = dict(params.named_arrays())
        assert all(a.dtype == np.float64 for a in after.values())
        assert {name: a.tobytes() for name, a in after.items()} == before


class TestInferenceTiming:
    @staticmethod
    def _spy_on_predict(monkeypatch):
        """Record the clip count of every `evaluation.predict` call."""
        calls = []
        real = evaluation.predict

        def spy(params, features, mask):
            calls.append(features.shape[0])
            return real(params, features, mask)

        monkeypatch.setattr(evaluation, "predict", spy)
        return calls

    def test_reports_positive_time(self, small_dataset, tiny_model_config):
        import dataclasses

        cfg = dataclasses.replace(
            tiny_model_config, T=small_dataset.T, FT=small_dataset.FT, K=1
        )
        params = init_params(cfg, seed=0)
        feats, mask, labels = small_dataset.subset(small_dataset.test_idx[:8])
        assert evaluate(params, feats, mask, labels).per_clip_us > 0.0

    def test_scores_and_times_the_same_full_split_passes(self, small_dataset, tiny_model_config, monkeypatch):
        import dataclasses

        cfg = dataclasses.replace(
            tiny_model_config, T=small_dataset.T, FT=small_dataset.FT, K=1
        )
        params = init_params(cfg, seed=0)
        feats, mask, labels = small_dataset.subset(small_dataset.test_idx[:20])
        calls = self._spy_on_predict(monkeypatch)
        evaluate(params, feats, mask, labels)
        assert calls == [20] * INFERENCE_REPEATS

    def test_empty_split_rejected_before_any_predict(self, tiny_model_config, monkeypatch):
        params = init_params(tiny_model_config, seed=0)
        calls = self._spy_on_predict(monkeypatch)
        with pytest.raises(InvalidConfigError, match="empty"):
            evaluate(params, np.zeros((0, 3, 6, 4)), np.zeros((0, 3, 6), dtype=bool), np.zeros(0, dtype=np.int64))
        assert calls == []

    def test_ablation_cell_is_scored_and_timed_by_one_evaluate(self, small_synth, monkeypatch):
        evaluations = []
        real = evaluation.evaluate

        def spy(params, features, mask, labels):
            evaluations.append(len(labels))
            return real(params, features, mask, labels)

        monkeypatch.setattr(evaluation, "evaluate", spy)
        calls = self._spy_on_predict(monkeypatch)
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base",),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        (cell,) = run_ablation(small_synth.sessions, spec, TrainConfig(batch_size=128, max_epochs=1, seed=0))
        assert cell.error is None and cell.metrics.per_clip_us > 0.0
        assert calls == evaluations * INFERENCE_REPEATS and len(evaluations) == 1


class TestSweep:
    def test_cells_cover_cartesian_product(self):
        spec = SweepSpec(T_set=(2, 3), FT_set=(1,), K_set=(1, 2), variants=("base",))
        cells = list(spec.cells())
        assert len(cells) == 4
        assert {(t, k) for _, t, _, k, _, _ in cells} == {(2, 1), (2, 2), (3, 1), (3, 2)}
        # variant outermost, then T, FT, K, quota, and seed fastest
        spec = SweepSpec(
            T_set=(2, 3), FT_set=(1, 2), K_set=(1, 2), variants=("base", "full"),
            quotas=(CategoryQuota(1, 1, 1), CategoryQuota(2, 1, 1)), seeds=(0, 1),
        )
        nested = [
            (v, t, ft, k, q, s)
            for v in spec.variants for t in spec.T_set for ft in spec.FT_set
            for k in spec.K_set for q in spec.quotas for s in spec.seeds
        ]
        assert list(spec.cells()) == nested and len(nested) == 64

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidConfigError):
            SweepSpec(T_set=())

    def test_variants_are_stored_by_canonical_name(self):
        assert SweepSpec(variants=("Full", "base-t", "BaseSingle")).variants == ("full", "base_t", "base_single")
        with pytest.raises(InvalidConfigError, match="unknown variant 'bogus'"):
            SweepSpec(variants=("bogus",))

    def test_one_dataset_per_seed_split_by_that_seed(self, small_synth, monkeypatch):
        """2 variants x 2 seeds build 2 datasets, each split with its own seed's split seed."""
        built = []
        real = evaluation.build_dataset

        def spy(*args, **kwargs):
            built.append((kwargs["seed"], real(*args, **kwargs)))
            return built[-1][1]

        monkeypatch.setattr(evaluation, "build_dataset", spy)
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base", "base_single"),
            quotas=(TINY_QUOTA,), seeds=(0, 1),
        )
        results = run_ablation(small_synth.sessions, spec, TrainConfig(batch_size=128, max_epochs=1))
        assert all(cell.error is None for cell in results) and len(results) == 4
        assert [seed for seed, _ in built] == [split_seed(0), split_seed(1)]
        assert not np.array_equal(built[0][1].test_idx, built[1][1].test_idx)

    def test_run_ablation_records_failures_and_continues(self, small_synth):
        # T larger than any session forces a cell failure; the base cell still runs.
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base",),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        bad = SweepSpec(
            T_set=(500,), FT_set=(1,), K_set=(1,), variants=("base",),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        config = TrainConfig(batch_size=128, max_epochs=1, seed=0)
        ok = run_ablation(small_synth.sessions, spec, config)
        failed = run_ablation(small_synth.sessions, bad, config)
        assert ok[0].error is None and ok[0].metrics is not None
        assert failed[0].error is not None and failed[0].metrics is None

    def test_run_ablation_propagates_programming_errors(self, small_synth, monkeypatch):
        """Only a SpeedcastError becomes a failed row; a bug in a cell stops the sweep."""

        def broken_train(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(evaluation, "train_variant", broken_train)
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base",),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        with pytest.raises(TypeError, match="unexpected argument"):
            run_ablation(small_synth.sessions, spec, TrainConfig(batch_size=128, max_epochs=1, seed=0))

    def test_results_table_well_formed(self, small_synth, tmp_path):
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base", "base_single"),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        config = TrainConfig(batch_size=128, max_epochs=1, seed=0)
        results = run_ablation(small_synth.sessions, spec, config)
        path = tmp_path / "results.csv"
        write_results_table(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULTS_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == len(RESULTS_HEADER.split(","))

    def test_cells_are_bitwise_reproducible(self, small_synth):
        spec = SweepSpec(
            T_set=(4,), FT_set=(1,), K_set=(1,), variants=("base",),
            quotas=(TINY_QUOTA,), seeds=(0,),
        )
        config = TrainConfig(batch_size=128, max_epochs=2, seed=7)
        a = run_ablation(small_synth.sessions, spec, config)
        b = run_ablation(small_synth.sessions, spec, config)
        assert a[0].metrics is not None and b[0].metrics is not None
        np.testing.assert_array_equal(a[0].metrics.confusion, b[0].metrics.confusion)
        assert a[0].report.val_losses == b[0].report.val_losses
