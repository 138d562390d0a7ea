"""Model wiring: variants, LSTM encoding, classifier, checkpoints."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.errors import InvalidConfigError, InvalidRecordError, ShapeError
from speedcast.model import (
    LstmLayerParams,
    ModelConfig,
    init_params,
    load_checkpoint,
    lstm_backward,
    lstm_cell_step,
    lstm_forward,
    model_forward,
    normalize_variant,
    save_checkpoint,
    softmax,
)
from speedcast.types import CategoryQuota

from conftest import TINY_QUOTA, central_difference_errors, random_batch


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

    def test_unknown_activation_rejected(self):
        with pytest.raises(InvalidConfigError, match="activation"):
            ModelConfig(activation="tanh")

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


GATES = ("i", "f", "g", "o")


@st.composite
def lstm_stacks(draw):
    """A zero-state LSTM stack, an input sequence and an upstream gradient.

    Biases reach +-`reach` (up to 1e3), so gates range from linear to fully
    saturated; weights stay O(1), which keeps finite differences accurate.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    b, t_len = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    reach = draw(st.floats(min_value=0.1, max_value=1e3))
    layers = [
        LstmLayerParams(
            **{f"w_{g}": rng.normal(size=(d_in + h, h)) / np.sqrt(d_in + h) for g in GATES},
            **{f"b_{g}": rng.uniform(-reach, reach, size=h) for g in GATES},
        )
        for d_in, h in zip(widths[:-1], widths[1:])
    ]
    return layers, rng.normal(size=(b, t_len, widths[0])), rng.normal(size=(b, widths[-1]))


def cell_step_loop(seq, layers):
    """The top layer's last hidden state from `lstm_cell_step`, one step at a time."""
    x = seq
    for layer in layers:
        h = np.zeros((seq.shape[0], layer.hidden))
        c = np.zeros_like(h)
        outs = []
        for t in range(seq.shape[1]):
            h, c = lstm_cell_step(x[:, t, :], h, c, layer)
            outs.append(h)
        x = np.stack(outs, axis=1)
    return x[:, -1, :]


class TestLstm:
    def test_forward_agrees_with_cell_steps(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        layers = params.lstm["car"]
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(2, 4, tiny_model_config.pooled_dim))
        final, _ = lstm_forward(seq, layers)
        np.testing.assert_allclose(final, cell_step_loop(seq, layers), atol=1e-14)

    def test_cell_shape_check(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        layer = params.lstm["car"][0]
        with pytest.raises(ShapeError):
            lstm_cell_step(np.zeros(3), np.zeros(layer.hidden), np.zeros(layer.hidden), layer)

    def test_sequence_rank_check(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        with pytest.raises(ShapeError):
            lstm_forward(np.zeros((4, 8)), params.lstm["car"])

    def test_sequence_width_check(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        with pytest.raises(ShapeError, match="width"):
            lstm_forward(np.zeros((4, 2, tiny_model_config.pooled_dim + 1)), params.lstm["car"])


@pytest.mark.filterwarnings("error::RuntimeWarning")  # saturated gates must not overflow
class TestFusedLstmProperties:
    @settings(max_examples=60, deadline=None)
    @given(lstm_stacks())
    def test_forward_matches_cell_steps(self, case):
        layers, seq, _ = case
        final, _ = lstm_forward(seq, layers)
        np.testing.assert_allclose(final, cell_step_loop(seq, layers), rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(lstm_stacks())
    def test_backward_matches_central_differences(self, case):
        layers, seq, d_final = case
        _, cache = lstm_forward(seq, layers)
        d_seq, grads = lstm_backward(d_final, cache, layers)
        assert d_seq.shape == seq.shape

        def objective():
            return float((lstm_forward(seq, layers)[0] * d_final).sum())

        pairs = [
            (getattr(layer, name), g[name])
            for layer, g in zip(layers, grads)
            for name in [f"{kind}_{gate}" for kind in "wb" for gate in GATES]
        ]
        assert max(central_difference_errors(objective, pairs + [(seq, d_seq)])) < 1e-6


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


def drop_config_field(config, name):
    """A stored config JSON without one field."""
    fields = json.loads(str(config))
    del fields[name]
    return np.array(json.dumps(fields))


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

    @pytest.mark.parametrize(
        "content",
        [b"", b"not an archive", b"PK\x03\x04truncated", "npy"],
        ids=["empty", "text", "bad-zip", "npy"],
    )
    def test_non_archive_rejected(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes(content)
        with pytest.raises(InvalidRecordError, match="not a checkpoint archive"):
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
            (lambda d: d.update({"config": drop_config_field(d["config"], "T")}), r"lacks \['T'\]"),
            (lambda d: d.update({"config": np.array("{")}), "config is not JSON"),
            (
                lambda d: d.update({"config": np.array(ModelConfig().to_json().replace("[20, 10, 10]", "5"))}),
                "wrong type",
            ),
        ],
        ids=["missing", "extra", "shape", "dtype", "metadata", "config-field", "config-json", "config-type"],
    )
    def test_foreign_content_rejected_by_name(self, tiny_model_config, tmp_path, edit, named):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_params(tiny_model_config, seed=9), path)
        self._rewrite(path, edit)
        with pytest.raises(InvalidRecordError, match=named):
            load_checkpoint(path)
