"""Model wiring: variants, LSTM encoding, classifier, checkpoints."""
import numpy as np
import pytest

from speedcast.errors import InvalidConfigError, InvalidRecordError, ShapeError
from speedcast.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    lstm_cell_step,
    lstm_forward,
    model_forward,
    normalize_variant,
    save_checkpoint,
    softmax,
)
from speedcast.types import CategoryQuota

from conftest import TINY_QUOTA, random_batch


class TestVariantNames:
    @pytest.mark.parametrize(
        "alias,canonical",
        [("Base", "base"), ("base+t", "base_t"), ("Base-Multi", "base_multi"), ("FULL", "full")],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_variant(alias) == canonical

    def test_unknown_rejected(self):
        with pytest.raises(InvalidConfigError):
            normalize_variant("extra")


class TestConfigWiring:
    def test_full_uses_three_views(self):
        cfg = ModelConfig(variant="full", quota=TINY_QUOTA)
        assert [v for v, _ in cfg.views()] == ["car", "pedestrian", "traffic"]
        assert cfg.temporal

    def test_base_uses_car_only_without_lstm(self):
        cfg = ModelConfig(variant="base", quota=TINY_QUOTA)
        assert [v for v, _ in cfg.views()] == ["car"]
        assert not cfg.temporal

    def test_base_single_spans_all_slots(self):
        cfg = ModelConfig(variant="base_single", quota=TINY_QUOTA)
        (name, block), = cfg.views()
        assert name == "all" and block == slice(0, TINY_QUOTA.total)

    def test_classifier_width_per_variant(self):
        temporal = ModelConfig(variant="full", quota=TINY_QUOTA)
        flat = ModelConfig(variant="base_multi", quota=TINY_QUOTA)
        assert temporal.classifier_in_dim == 3 * temporal.lstm_hidden
        assert flat.classifier_in_dim == 3 * flat.T * flat.graph_widths[-1]

    def test_json_round_trip(self):
        cfg = ModelConfig(T=7, FT=2, K=3, quota=CategoryQuota(4, 2, 2), variant="base_t")
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(T=0)
        with pytest.raises(InvalidConfigError):
            ModelConfig(K=-1)


class TestInit:
    def test_seed_determinism(self, tiny_model_config):
        a = init_params(tiny_model_config, seed=5)
        b = init_params(tiny_model_config, seed=5)
        for (na, ta), (nb, tb) in zip(a.named_arrays(), b.named_arrays()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_forget_gate_bias_is_one(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        for layers in params.lstm.values():
            for layer in layers:
                assert np.all(layer.b_f == 1.0)
                assert np.all(layer.b_i == 0.0)

    def test_clone_is_independent(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        copy = params.clone()
        params.classifier.w1 += 1.0
        assert not np.allclose(copy.classifier.w1, params.classifier.w1)

    def test_non_temporal_variants_have_no_lstm(self):
        cfg = ModelConfig(variant="base_multi", quota=TINY_QUOTA)
        assert init_params(cfg, seed=0).lstm == {}


class TestLstm:
    def test_forward_agrees_with_cell_steps(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        layers = params.lstm["car"]
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(2, 4, tiny_model_config.pooled_dim))
        final, _ = lstm_forward(seq, layers)
        x = seq
        for layer in layers:
            h = np.zeros((2, layer.hidden))
            c = np.zeros((2, layer.hidden))
            outs = []
            for t in range(4):
                h, c = lstm_cell_step(x[:, t, :], h, c, layer)
                outs.append(h)
            x = np.stack(outs, axis=1)
        np.testing.assert_allclose(final, x[:, -1, :], atol=1e-14)

    def test_cell_shape_check(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        layer = params.lstm["car"][0]
        with pytest.raises(ShapeError):
            lstm_cell_step(np.zeros(3), np.zeros(layer.hidden), np.zeros(layer.hidden), layer)

    def test_sequence_rank_check(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((4, 8)), params.lstm["car"])


class TestForward:
    @pytest.mark.parametrize("variant", ["base", "base_single", "base_multi", "base_t", "full"])
    def test_all_variants_produce_simplex_rows(self, variant):
        cfg = ModelConfig(
            T=3, K=1, quota=TINY_QUOTA, graph_widths=(4, 8), lstm_hidden=8,
            mlp_widths=(8, 8), variant=variant,
        )
        params = init_params(cfg, seed=2)
        features, mask, _ = random_batch(cfg, batch=3, seed=2)
        probs, logits, _ = model_forward(features, mask, params)
        assert probs.shape == logits.shape == (3, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_shape_mismatch_rejected(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        with pytest.raises(ShapeError):
            model_forward(np.zeros((1, 2, 6, 4)), np.zeros((1, 2, 6), dtype=bool), params)

    @pytest.mark.parametrize("bad", ["short", "float", "int"])
    def test_bad_mask_rejected(self, tiny_model_config, bad):
        params = init_params(tiny_model_config, seed=0)
        features, mask, _ = random_batch(tiny_model_config, batch=2, seed=0)
        mask = {"short": mask[:, :, :-1], "float": mask.astype(float), "int": mask.astype(int)}[bad]
        with pytest.raises(ShapeError, match="mask"):
            model_forward(features, mask, params)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_model_config, tmp_path):
        params = init_params(tiny_model_config, seed=9)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        original = params.arrays()
        for name, arr in loaded.named_arrays():
            np.testing.assert_array_equal(arr, original[name])

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, schema=np.array("not-a-checkpoint"))
        with pytest.raises(InvalidRecordError):
            load_checkpoint(path)

    @staticmethod
    def _rewrite(path, edit):
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        edit(payload)
        np.savez(path, **payload)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.pop("classifier.b1"), "classifier.b1"),
            (lambda d: d.update({"classifier.b9": np.zeros(3)}), "classifier.b9"),
            (lambda d: d.update({"classifier.b1": np.zeros(3)}), "classifier.b1"),
            (lambda d: d.update({"classifier.b1": np.array(["x"] * 8)}), "classifier.b1"),
            (lambda d: d.pop("seed"), "seed"),
        ],
        ids=["missing", "extra", "shape", "dtype", "metadata"],
    )
    def test_foreign_content_rejected_by_name(self, tiny_model_config, tmp_path, edit, named):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_params(tiny_model_config, seed=9), path)
        self._rewrite(path, edit)
        with pytest.raises(InvalidRecordError, match=named):
            load_checkpoint(path)
