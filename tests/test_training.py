"""Objective, gradients, Adam, early stopping, and the training loop."""
import numpy as np
import pytest

from speedcast import train as train_module
from speedcast.errors import InvalidConfigError, NumericFaultError
from speedcast.model import ModelConfig, init_params, model_forward, save_checkpoint
from speedcast.train import (
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    batch_loss,
    gradient_check,
    loss_and_grads,
    train,
)

from conftest import TINY_QUOTA, random_batch


class TestCrossEntropy:
    def test_batch_loss_matches_probability_form(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        features, mask, labels = random_batch(tiny_model_config, batch=4, seed=1)
        probs, _, _ = model_forward(features, mask, params)
        direct = -np.log(probs[np.arange(len(labels)), labels]).mean()
        assert batch_loss(features, mask, labels, params) == pytest.approx(direct, abs=1e-12)


class TestGradients:
    def test_loss_and_grads_covers_every_tensor(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        features, mask, labels = random_batch(tiny_model_config, batch=2, seed=2)
        _, grads, _ = loss_and_grads(features, mask, labels, params)
        assert set(grads) == {name for name, _ in params.named_arrays()}

    def test_empty_batch_rejected(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        with pytest.raises(InvalidConfigError):
            loss_and_grads(np.zeros((0, 3, 6, 4)), np.zeros((0, 3, 6), dtype=bool), np.zeros(0, dtype=int), params)

    def test_non_finite_parameters_raise_numeric_fault(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        params.classifier.w_out[0, 0] = np.nan
        features, mask, labels = random_batch(tiny_model_config, batch=2, seed=3)
        with pytest.raises(NumericFaultError):
            loss_and_grads(features, mask, labels, params)

    def test_non_finite_graph_weights_raise_numeric_fault(self, tiny_model_config):
        """A NaN max-pool still routes its gradient, so the fault is reported, not an IndexError."""
        params = init_params(tiny_model_config, seed=0)
        params.graph["car"][1].weights[0, 0, 0] = np.nan
        features, mask, labels = random_batch(tiny_model_config, batch=2, seed=3)
        with pytest.raises(NumericFaultError):
            loss_and_grads(features, mask, labels, params)

    def test_gradient_check_on_small_variant(self):
        cfg = ModelConfig(
            T=2, K=1, quota=TINY_QUOTA, graph_widths=(3, 4), lstm_hidden=4,
            mlp_widths=(4, 4), variant="base_t",
        )
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(4)
        for _, arr in params.named_arrays():
            arr += rng.normal(scale=0.05, size=arr.shape)
        features, mask, labels = random_batch(cfg, batch=2, seed=4)
        worst = gradient_check(features, mask, labels, params)
        assert max(worst.values()) <= 1e-4


    @pytest.mark.parametrize("K", [0, 5])
    def test_gradient_check_with_empty_views(self, K):
        """Frames where a view has no real node pool to zero and must pass no gradient."""
        cfg = ModelConfig(
            T=3, K=K, quota=TINY_QUOTA, graph_widths=(3, 4), lstm_hidden=4,
            mlp_widths=(4, 4), variant="full",
        )
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        for _, arr in params.named_arrays():
            arr += rng.normal(scale=0.05, size=arr.shape)
        features, mask, labels = random_batch(cfg, batch=2, seed=5)
        for view, block in cfg.views():
            mask[0, 1, block] = False
            mask[1, 2, block] = False
        features[~mask] = 0.0
        worst = gradient_check(features, mask, labels, params)
        assert max(worst.values()) <= 1e-4


def normwise_error(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else 0.0


class TestMixedPrecision:
    @pytest.mark.parametrize("variant,K", [("full", 1), ("base", 5), ("base_multi", 0)])
    def test_float32_loss_and_grads_match_float64(self, variant, K):
        """Float32 compute is within 1e-4 norm-wise of float64, per tensor."""
        cfg = ModelConfig(T=4, K=K, quota=TINY_QUOTA, variant=variant)
        params = init_params(cfg, seed=7)
        features, mask, labels = random_batch(cfg, batch=64, seed=7)
        loss64, grads64, _ = loss_and_grads(features, mask, labels, params)
        loss32, grads32, _ = loss_and_grads(
            features.astype(np.float32), mask, labels, params.clone(np.float32)
        )
        assert abs(loss32 - loss64) <= 1e-4 * abs(loss64)
        errors = {name: normwise_error(grads32[name], g) for name, g in grads64.items()}
        assert max(errors.values()) <= 1e-4, errors


class TestAdam:
    def test_single_step_hand_computation(self):
        cfg = ModelConfig(
            T=2, K=0, quota=TINY_QUOTA, graph_widths=(2, 2), mlp_widths=(2, 2),
            variant="base",
        )
        params = init_params(cfg, seed=0)
        state = AdamState.for_params(params)
        grads = {name: np.full_like(a, 0.5) for name, a in params.named_arrays()}
        before = params.classifier.b_out.copy()
        adam_step(params, grads, state, TrainConfig(step_size=0.01))
        # first step: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
        expected = before - 0.01 * 0.5 / (0.5 + 1e-8)
        np.testing.assert_allclose(params.classifier.b_out, expected, atol=1e-12)
        assert state.t == 1

    def test_moments_persist_across_steps(self):
        cfg = ModelConfig(
            T=2, K=0, quota=TINY_QUOTA, graph_widths=(2, 2), mlp_widths=(2, 2),
            variant="base",
        )
        params = init_params(cfg, seed=0)
        state = AdamState.for_params(params)
        grads = {name: np.ones_like(a) for name, a in params.named_arrays()}
        adam_step(params, grads, state)
        m_after = state.m["classifier.b_out"].copy()
        adam_step(params, grads, state)
        assert state.t == 2
        assert not np.allclose(state.m["classifier.b_out"], m_after)

    def test_float32_gradients_update_float64_masters(self):
        cfg = ModelConfig(
            T=2, K=0, quota=TINY_QUOTA, graph_widths=(2, 2), mlp_widths=(2, 2),
            variant="base",
        )
        rng = np.random.default_rng(0)
        grads = {
            name: rng.normal(size=a.shape).astype(np.float32)
            for name, a in init_params(cfg).named_arrays()
        }
        mixed, exact = init_params(cfg, seed=0), init_params(cfg, seed=0)
        mixed_state, exact_state = AdamState.for_params(mixed), AdamState.for_params(exact)
        adam_step(mixed, grads, mixed_state)
        adam_step(exact, {k: g.astype(np.float64) for k, g in grads.items()}, exact_state)
        for name, arr in mixed.named_arrays():
            assert arr.dtype == mixed_state.m[name].dtype == mixed_state.v[name].dtype == np.float64
            np.testing.assert_array_equal(arr, exact.arrays()[name])
            np.testing.assert_array_equal(mixed_state.v[name], exact_state.v[name])


class TestEarlyStopper:
    def test_constructed_plateau_sequence(self):
        """[1.0, 0.9, then 50 sub-threshold drifts] stops 50 epochs after the drop."""
        stopper = EarlyStopper(patience=50, min_delta=1e-6)
        losses = [1.0, 0.9] + [0.9 - 5e-7] * 50
        stopped_at = None
        for epoch, loss in enumerate(losses, start=1):
            stopper.update(loss, epoch)
            if stopper.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == 52
        assert stopper.best_epoch == 2
        assert stopper.best_loss == 0.9

    def test_counter_resets_on_real_improvement(self):
        stopper = EarlyStopper(patience=2, min_delta=1e-6)
        for epoch, loss in enumerate([1.0, 0.99, 0.99, 0.5, 0.5], start=1):
            stopper.update(loss, epoch)
        assert stopper.stale == 1
        assert stopper.best_epoch == 4

    def test_monotone_improvement_never_stops(self):
        stopper = EarlyStopper(patience=3, min_delta=1e-6)
        for epoch in range(1, 100):
            stopper.update(1.0 / epoch, epoch)
            assert not stopper.should_stop

    def test_patience_validated(self):
        with pytest.raises(InvalidConfigError):
            EarlyStopper(patience=0)


class TestTrainConfig:
    def test_defaults_match_stated_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 512
        assert cfg.step_size == 0.001
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
        assert cfg.patience == 50
        assert cfg.min_delta == 1e-6

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(step_size=0.0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(patience=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize(
        "name, value", [("batch_size", True), ("batch_size", 1.5), ("seed", "0"), ("step_size", "0.1"), ("beta1", False)]
    )
    def test_ill_typed_field_rejected(self, name, value):
        with pytest.raises(InvalidConfigError, match=f"field {name} must be"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("epsilon", 0.0), ("epsilon", -1e-8), ("min_delta", -1e-6)],
    )
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(InvalidConfigError, match=name):
            TrainConfig(**{name: value})

    def test_range_bounds_accepted(self):
        TrainConfig(beta1=0, beta2=0.0, min_delta=0)


class TestTrainLoop:
    def test_loss_decreases_on_small_dataset(self, small_dataset):
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
        )
        params = init_params(cfg, seed=0)
        best, report = train(
            small_dataset, params, TrainConfig(batch_size=128, max_epochs=8, seed=0)
        )
        assert report.stop_epoch == 8
        assert report.train_losses[-1] < report.train_losses[0]
        assert report.best_val_loss == min(report.val_losses)

    def test_best_weights_reproduce_recorded_val_loss(self, small_dataset):
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
        )
        params = init_params(cfg, seed=1)
        best, report = train(
            small_dataset, params, TrainConfig(batch_size=128, max_epochs=5, seed=1)
        )
        feats, mask, labels = small_dataset.subset(small_dataset.val_idx)
        assert batch_loss(feats, mask, labels, best) == pytest.approx(
            report.best_val_loss, abs=1e-12
        )

    def test_seeded_runs_are_bitwise_identical(self, small_dataset):
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
        )
        outs = []
        for _ in range(2):
            params = init_params(cfg, seed=2)
            best, report = train(
                small_dataset, params, TrainConfig(batch_size=128, max_epochs=3, seed=2)
            )
            outs.append((best.arrays(), report.val_losses))
        assert outs[0][1] == outs[1][1]
        for name in outs[0][0]:
            np.testing.assert_array_equal(outs[0][0][name], outs[1][0][name])

    def test_steps_compute_in_float32_on_float64_masters(self, small_dataset, monkeypatch, tmp_path):
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), lstm_hidden=8, mlp_widths=(8, 8), variant="full",
        )
        seen = set()
        real = train_module.loss_and_grads

        def spy(features, mask, labels, params, *rest, **options):
            seen.update({features.dtype, *(a.dtype for _, a in params.named_arrays())})
            return real(features, mask, labels, params, *rest, **options)

        monkeypatch.setattr(train_module, "loss_and_grads", spy)
        params = init_params(cfg, seed=4)
        save_checkpoint(params, tmp_path / "init.npz")
        best, report = train(small_dataset, params, TrainConfig(batch_size=128, max_epochs=2, seed=4))
        assert seen == {np.dtype(np.float32)} and report.stop_epoch == 2
        for name, arr in [*params.named_arrays(), *best.named_arrays()]:
            assert arr.dtype == np.float64, name
        save_checkpoint(best, tmp_path / "best.npz")
        with np.load(tmp_path / "init.npz") as before, np.load(tmp_path / "best.npz") as after:
            layout = [{k: (f[k].dtype, f[k].shape) for k in f.files} for f in (before, after)]
        assert layout[0] == layout[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite weight is the point
    def test_numeric_fault_aborts_cleanly(self, small_dataset):
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
        )
        params = init_params(cfg, seed=3)
        params.classifier.w1[0, 0] = np.inf
        _, report = train(
            small_dataset, params, TrainConfig(batch_size=128, max_epochs=3, seed=3)
        )
        assert report.aborted
        assert report.stop_epoch == 1
        assert (report.fault.epoch, report.fault.batch) == (1, 0)
        assert report.fault.tensor in params.arrays()
        assert report.fault.tensor in str(report.fault)

    def test_batches_reach_the_model_as_frame_tables(self, small_dataset, monkeypatch):
        """Each batch holds each distinct frame once, and the windows rebuild its clips."""
        cfg = ModelConfig(
            T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
            graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
        )
        batches = []
        real = train_module.loss_and_grads

        def spy(features, mask, labels, params, *rest, windows=None, **options):
            batches.append((features, mask, labels, windows))
            return real(features, mask, labels, params, *rest, windows=windows, **options)

        monkeypatch.setattr(train_module, "loss_and_grads", spy)
        train(small_dataset, init_params(cfg, seed=0), TrainConfig(batch_size=128, max_epochs=1, seed=0))
        order = np.random.default_rng(0).permutation(len(small_dataset.train_idx))
        assert len(batches) == -(-len(order) // 128)
        for lo, (frames, mask, labels, windows) in zip(range(0, len(order), 128), batches):
            clips = small_dataset.subset(small_dataset.train_idx[order[lo : lo + 128]])
            assert len(np.unique(windows)) == len(frames) < windows.size
            np.testing.assert_array_equal(frames[windows], clips[0].astype(np.float32))
            np.testing.assert_array_equal(mask[windows], clips[1])
            np.testing.assert_array_equal(labels, clips[2])

    def test_empty_split_rejected(self, small_dataset, tiny_model_config):
        import dataclasses

        broken = dataclasses.replace(small_dataset, val_idx=np.empty(0, dtype=np.int64))
        params = init_params(tiny_model_config, seed=0)
        with pytest.raises(InvalidConfigError):
            train(broken, params, TrainConfig(max_epochs=1))
