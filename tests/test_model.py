"""Model wiring: variants, LSTM encoding, classifier, checkpoints."""
import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedcast import model as model_module
from speedcast.errors import InvalidConfigError, InvalidRecordError, ShapeError
from speedcast.graph import Segments
from speedcast.model import (
    VARIANTS,
    LstmLayerParams,
    ModelConfig,
    classify,
    classify_backward,
    encode_view,
    encode_view_backward,
    init_params,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    model_backward,
    model_forward,
    normalize_variant,
    save_checkpoint,
    softmax,
)
from speedcast.types import CategoryQuota

from conftest import TINY_QUOTA, central_difference_errors, random_batch
from oracles import cell_step_loop, reference_forward

DATA = Path(__file__).parent / "data"


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
        assert json.loads(cfg.to_json())["activation"] == "relu"  # the stored format keeps the key

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(T=0)
        with pytest.raises(InvalidConfigError):
            ModelConfig(K=-1)
        for bad in (
            {"lstm_layers": 0},
            {"lstm_hidden": 0},
            {"graph_widths": ()},
            {"graph_widths": (16, 0)},
            {"mlp_widths": (0, 32)},
            {"mlp_widths": (8, 8, 8)},
            {"mlp_widths": (8,)},
        ):
            ((name, value),) = bad.items()
            named = rf"ModelConfig field {name} must be .*, got {re.escape(repr(value))}"
            with pytest.raises(InvalidConfigError, match=named):
                ModelConfig(**bad)
        for bad in ({"lstm_hidden": 8.5}, {"K": 1.0}, {"graph_widths": (16, True)}, {"T": "3"}):
            (name,) = bad
            with pytest.raises(InvalidConfigError, match=f"field {name} must be"):
                ModelConfig(**bad)
        assert ModelConfig(T=np.int64(3), mlp_widths=(np.int32(8), 8)).T == 3


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
                i, f, g, o = np.split(layer.bias, 4)
                assert np.all(f == 1.0)
                assert np.all(np.concatenate([i, g, o]) == 0.0)

    def test_clone_is_independent(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        copy = params.clone()
        params.classifier.w1 += 1.0
        assert not np.allclose(copy.classifier.w1, params.classifier.w1)

    def test_non_temporal_variants_have_no_lstm(self):
        cfg = ModelConfig(variant="base_multi", quota=TINY_QUOTA)
        assert init_params(cfg, seed=0).lstm == {}

    def test_weight_numpy_refuses_to_shape_is_config_error(self):
        cfg = ModelConfig(variant="base", K=10**20, quota=TINY_QUOTA)
        with pytest.raises(InvalidConfigError, match=f"^variant base with K={10**20} is too large to allocate"):
            init_params(cfg)

    def test_weight_that_cannot_be_allocated_is_config_error(self, monkeypatch):
        def refuse(*args):
            raise MemoryError("no room")

        monkeypatch.setattr(model_module, "_glorot", refuse)
        with pytest.raises(InvalidConfigError, match=r"^variant full with K=3 is too large to allocate: .*no room"):
            init_params(ModelConfig(K=3, quota=TINY_QUOTA))

    def test_other_value_errors_are_not_masked(self, monkeypatch):
        def broken(**_):
            raise ValueError("not an allocation")

        monkeypatch.setattr(model_module, "MlpParams", broken)
        with pytest.raises(ValueError, match="^not an allocation$"):
            init_params(ModelConfig(quota=TINY_QUOTA))


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
            weights=rng.normal(size=(d_in + h, 4 * h)) / np.sqrt(d_in + h),
            bias=rng.uniform(-reach, reach, size=4 * h),
        )
        for d_in, h in zip(widths[:-1], widths[1:])
    ]
    return layers, rng.normal(size=(b, t_len, widths[0])), rng.normal(size=(b, widths[-1]))


class TestLstm:
    def test_forward_agrees_with_cell_steps(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=1)
        layers = params.lstm["car"]
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(2, 4, tiny_model_config.pooled_dim))
        final, _ = lstm_forward(seq, layers)
        np.testing.assert_allclose(final, cell_step_loop(seq, layers), atol=1e-14)

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
            pair
            for layer, (dw, db) in zip(layers, grads)
            for pair in ((layer.weights, dw), (layer.bias, db))
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

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_probabilities_match_reference_model(self, variant, data):
        """The production forward equals the oracles composed: dense graphs, cell steps, plain MLP."""
        draw = data.draw
        cfg = ModelConfig(
            T=draw(st.integers(1, 4)),
            K=draw(st.integers(0, 6)),
            quota=CategoryQuota(*draw(st.tuples(*[st.integers(1, 3)] * 3))),
            graph_widths=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
            lstm_hidden=draw(st.integers(1, 4)),
            lstm_layers=draw(st.integers(1, 2)),
            mlp_widths=(draw(st.integers(1, 5)), draw(st.integers(1, 5))),
            variant=variant,
        )
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        params = init_params(cfg, seed=0)
        for _, arr in params.named_arrays():
            arr += rng.normal(scale=0.3, size=arr.shape)  # nonzero biases, off the init
        # Padded slots keep random features: the model must ignore them.
        features = rng.normal(size=(draw(st.integers(2, 3)), cfg.T, cfg.quota.total, 4))
        mask = rng.uniform(size=features.shape[:3]) < 0.6
        mask[0, 0] = False  # no real node in any view
        mask[-1, -1] = True  # every slot real
        probs, _, _ = model_forward(features, mask, params)
        np.testing.assert_allclose(probs, reference_forward(features, mask, params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", ["past-table", "negative", "length", "float", "flat", "clip-features"])
    def test_bad_windows_rejected(self, tiny_model_config, bad):
        params = init_params(tiny_model_config, seed=0)
        features, mask, _ = random_batch(tiny_model_config, batch=2, seed=0)
        frames, frame_mask = features.reshape(6, -1, 4), mask.reshape(6, -1)
        windows = np.arange(6).reshape(2, 3)
        if bad == "clip-features":
            frames, frame_mask = features, mask
        windows = {
            "past-table": windows + 1,
            "negative": windows - 1,
            "length": windows[:, :2],
            "float": windows.astype(float),
            "flat": windows.ravel(),
        }.get(bad, windows)
        with pytest.raises(ShapeError, match="features" if bad == "clip-features" else "windows"):
            model_forward(frames, frame_mask, params, windows)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)


@st.composite
def frame_table_batches(draw):
    """A model with weights off the init, a frame table and windows into it.

    The windows have the sharing of a training batch: consecutive windows of
    one stretch of frames overlap, the other windows are random, and some clip
    repeats, as oversampling makes. The first clip's first step reads a frame
    with no real node in any view, and the last clip's last step one with no
    real node in one view.
    """
    cfg = ModelConfig(
        T=draw(st.integers(1, 4)),
        K=draw(st.integers(0, 3)),
        quota=CategoryQuota(*draw(st.tuples(*[st.integers(1, 3)] * 3))),
        graph_widths=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        lstm_hidden=draw(st.integers(1, 4)),
        mlp_widths=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        variant=draw(st.sampled_from(VARIANTS)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(cfg, seed=0)
    for _, arr in params.named_arrays():
        arr += rng.normal(scale=0.3, size=arr.shape)
    n_frames = draw(st.integers(cfg.T + 3, 3 * cfg.T + 4))
    frames = rng.normal(size=(n_frames, cfg.quota.total, 4))  # padded slots keep noise
    frame_mask = rng.uniform(size=frames.shape[:2]) < 0.6
    n_sliding = draw(st.integers(1, 4))
    sliding = rng.integers(0, n_frames - cfg.T - n_sliding + 2) + np.arange(n_sliding)
    clips = np.concatenate(
        [
            sliding[:, None] + np.arange(cfg.T),
            rng.integers(0, n_frames, size=(draw(st.integers(0, 3)), cfg.T)),
        ]
    )
    windows = clips[np.append(np.arange(len(clips)), rng.integers(len(clips), size=draw(st.integers(1, 3))))]
    frame_mask[windows[0, 0]] = False
    _, block = cfg.views()[draw(st.integers(0, len(cfg.views()) - 1))]
    frame_mask[windows[-1, -1], block] = False
    return params, frames, frame_mask, windows


def cancelling_case(seed: int, mlp_widths: tuple[int, int]):
    """A `base_single` model at K=3 on three copies of the clip [3, 4, 5] where only frame 4 has
    real nodes. Its gradients are sums that cancel to far below the terms they add; at these
    seeds the two paths' different summation order shows in the last bits."""
    cfg = ModelConfig(
        T=3, K=3, quota=CategoryQuota(1, 1, 1), graph_widths=(1, 2), lstm_hidden=1,
        mlp_widths=mlp_widths, variant="base_single",
    )
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=0)
    for _, arr in params.named_arrays():
        arr += rng.normal(scale=0.3, size=arr.shape)
    frames = rng.normal(size=(6, 3, 4))
    frame_mask = np.zeros((6, 3), dtype=bool)
    frame_mask[4] = rng.uniform(size=3) < 0.6
    frame_mask[4, 0] = True
    return params, frames, frame_mask, np.array([[3, 4, 5]] * 3)


class TestFrameTable:
    """A frame table with windows computes what the expanded clips `frames[windows]` compute."""

    @settings(max_examples=40, deadline=None)
    @given(frame_table_batches(), st.sampled_from([np.float64, np.float32]))
    def test_probabilities_match_expanded_clips(self, case, dtype):
        """Equal to a few units in the last place.

        Bit-identical on training-sized batches, but not always on these tiny
        ones: a frame's rows then sit in matrix products of another row count,
        which BLAS may compute with another kernel. With OpenBLAS 0.3.31 on
        x86-64, about 1 example in 80 differed, by at most 9 eps relative, over
        3000 examples.
        """
        params, frames, frame_mask, windows = case
        params, frames = params.clone(dtype), frames.astype(dtype)
        probs, _, _ = model_forward(frames, frame_mask, params, windows)
        expected, _, _ = model_forward(frames[windows], frame_mask[windows], params)
        np.testing.assert_allclose(probs, expected, rtol=64 * np.finfo(dtype).eps, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(frame_table_batches())
    @example(cancelling_case(2340, (2, 2)))  # graph.all.0.bias: 2.7e-5 next to weights of 0.70
    @example(cancelling_case(1186, (3, 3)))  # every gradient below 2e-4
    def test_gradients_match_expanded_clips(self, case):
        """Each frame's pooled gradient is the sum over the steps that read it, so the parameter
        gradients equal the expanded clips' to rounding.

        Rounding scales with the terms a gradient sums, not with the sum, which can cancel far
        below them. So the bound is 1e-12 times the largest gradient of the same view's tensors
        (the classifier's for its own), and at least 1e-12: each term is a product of
        probabilities, weights and features of order 1. Over 3000 drawn examples the largest
        difference was 96 eps, under 0.1% of this bound.
        """
        params, frames, frame_mask, windows = case
        probs, _, cache = model_forward(frames, frame_mask, params, windows)
        grads = model_backward(probs, cache, params)
        probs, _, cache = model_forward(frames[windows], frame_mask[windows], params)
        expected = model_backward(probs, cache, params)
        assert set(grads) == set(expected) == set(params.arrays())
        view = {name: name.split(".")[1] if name.count(".") > 1 else "classifier" for name in expected}
        scale = dict.fromkeys(view.values(), 1.0)
        for name, g in expected.items():
            scale[view[name]] = max(scale[view[name]], np.abs(g).max())
        for name, g in expected.items():
            assert np.abs(grads[name] - g).max() <= 1e-12 * scale[view[name]], name


class TestCacheFreeForward:
    """`keep_cache=False` returns no backward cache and changes no bit of the output."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_bits_as_the_cached_forward(self, variant, K, dtype):
        cfg = ModelConfig(
            T=3, K=K, quota=TINY_QUOTA, graph_widths=(4, 8), lstm_hidden=8,
            mlp_widths=(8, 8), variant=variant,
        )
        params = init_params(cfg, seed=5).clone(dtype)
        features, mask, _ = random_batch(cfg, batch=4, seed=5)
        mask[0, 1, :] = False  # one frame with no real node in any view
        features = features.astype(dtype)
        frames, frame_mask = features[:2].reshape(6, -1, 4), mask[:2].reshape(6, -1)
        windows = np.array([[0, 1, 2], [1, 2, 3], [3, 4, 5], [0, 1, 2]])  # overlapping and repeated clips
        for args in ((features, mask, params), (frames, frame_mask, params, windows)):
            probs, logits, cache = model_forward(*args)
            free_probs, free_logits, no_cache = model_forward(*args, keep_cache=False)
            assert cache is not None and no_cache is None
            for free, kept in ((free_probs, probs), (free_logits, logits)):
                assert free.dtype == kept.dtype == dtype and free.tobytes() == kept.tobytes()

    def test_peak_memory_is_at_most_half(self):
        """A 64-clip `full` forward at the paper's sizes, traced by tracemalloc."""
        params = init_params(ModelConfig(), seed=0)
        features, mask, _ = random_batch(params.config, batch=64, seed=0)
        peaks = {}
        for keep_cache in (True, False):
            tracemalloc.start()
            try:
                model_forward(features, mask, params, keep_cache=keep_cache)
                peaks[keep_cache] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= peaks[True] / 2, peaks


def stage_case(variant, K, dtype):
    """Tiny parameters, a 4-clip batch of expanded clips, and a 6-frame table with overlapping and repeated windows."""
    cfg = ModelConfig(
        T=3, K=K, quota=TINY_QUOTA, graph_widths=(4, 8), lstm_hidden=8,
        mlp_widths=(8, 8), variant=variant,
    )
    params = init_params(cfg, seed=7).clone(dtype)
    features, mask, _ = random_batch(cfg, batch=4, seed=7)
    mask[0, 1, :] = False  # one frame with no real node in any view
    features = features.astype(dtype)
    frames, frame_mask = features[:2].reshape(6, -1, 4), mask[:2].reshape(6, -1)
    windows = np.array([[0, 1, 2], [1, 2, 3], [3, 4, 5], [0, 1, 2]])
    return params, (features, mask), (frames, frame_mask, windows)


class TestStages:
    """`model_forward` and `model_backward` are `encode_view` per view, then `classify`, bit for bit."""

    @pytest.mark.parametrize("table", [False, True], ids=["expanded", "frame_table"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stages_compose_to_the_model(self, variant, K, dtype, table):
        params, clips, frame_table = stage_case(variant, K, dtype)
        args = frame_table if table else clips
        probs, logits, cache = model_forward(*args[:2], params, *args[2:])
        grads = model_backward(probs, cache, params)
        if table:
            frames, frame_mask, windows = frame_table
        else:
            frames, frame_mask = clips[0].reshape(-1, TINY_QUOTA.total, 4), clips[1].reshape(-1, TINY_QUOTA.total)
            windows = np.arange(len(frames)).reshape(len(clips[0]), -1)
        views = params.config.views()
        vectors, caches = zip(
            *(encode_view(frames[:, block], frame_mask[:, block], windows, params, view) for view, block in views)
        )
        stage_probs, stage_logits, classifier_cache = classify(np.concatenate(vectors, axis=1), params.classifier)
        assert stage_probs.tobytes() == probs.tobytes() and stage_logits.tobytes() == logits.tobytes()
        dv, stage_grads = classify_backward(probs, classifier_cache, params.classifier)
        groups = Segments.from_groups(windows.ravel(), len(frames))
        for (view, _), dpart, view_cache in zip(views, np.split(dv, len(views), axis=1), caches):
            stage_grads |= encode_view_backward(dpart, view_cache, params, view, groups)
        assert set(stage_grads) == set(grads) == set(params.arrays())
        for name, g in grads.items():
            assert stage_grads[name].dtype == g.dtype and stage_grads[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("variant", ["full", "base_multi"])
    def test_a_view_reads_only_its_own_slots(self, variant):
        params, _, (frames, frame_mask, windows) = stage_case(variant, 1, np.float64)
        views = params.config.views()
        before = [encode_view(frames[:, b], frame_mask[:, b], windows, params, v)[0] for v, b in views]
        for i, (_, block) in enumerate(views):
            perturbed = frames.copy()
            perturbed[:, block] += np.random.default_rng(i).normal(size=perturbed[:, block].shape)
            after = [encode_view(perturbed[:, b], frame_mask[:, b], windows, params, v)[0] for v, b in views]
            for j, (vector, unchanged) in enumerate(zip(after, before)):
                assert (vector.tobytes() == unchanged.tobytes()) == (j != i), (views[i][0], views[j][0])


def float_dtypes(obj, path="cache"):
    """(path, dtype) of every float array reachable through dicts, lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield path, obj.dtype
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from float_dtypes(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from float_dtypes(value, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from float_dtypes(getattr(obj, f.name), f"{path}.{f.name}")


class TestFloat32Compute:
    """Training computes in float32; a kernel that promotes to float64 loses the speed-up silently."""

    @pytest.mark.parametrize("K", [0, 1, 5])
    @pytest.mark.parametrize("variant", ["base", "base_single", "base_multi", "base_t", "full"])
    def test_forward_and_backward_stay_float32(self, variant, K):
        cfg = ModelConfig(
            T=3, K=K, quota=TINY_QUOTA, graph_widths=(4, 8), lstm_hidden=8,
            mlp_widths=(8, 8), variant=variant,
        )
        params = init_params(cfg, seed=3).clone(np.float32)
        features, mask, _ = random_batch(cfg, batch=4, seed=3)
        mask[0, 1, :] = False  # one frame with no real node in any view
        probs, logits, cache = model_forward(features.astype(np.float32), mask, params)
        grads = model_backward(probs, cache, params)
        outputs = {"probs": probs, "logits": logits, "grads": grads}
        promoted = [
            (path, dtype)
            for path, dtype in [*float_dtypes(cache), *float_dtypes(outputs, "out")]
            if dtype != np.float32
        ]
        assert promoted == []
        assert set(grads) == set(params.arrays())

    def test_clone_casts_every_tensor_and_shares_none(self, tiny_model_config):
        params = init_params(tiny_model_config, seed=0)
        low = params.clone(np.float32)
        assert low.config == params.config and low.seed == params.seed
        for (name, a), (_, b) in zip(params.named_arrays(), low.named_arrays()):
            assert a.dtype == np.float64 and b.dtype == np.float32, name
            np.testing.assert_array_equal(b, a.astype(np.float32))
            assert not np.shares_memory(a, b)


def drop_config_field(config, name):
    """A stored config JSON without one field."""
    fields = json.loads(str(config))
    del fields[name]
    return np.array(json.dumps(fields))


def edit_config(config, **changes):
    """A stored config JSON with some fields replaced."""
    return np.array(json.dumps({**json.loads(str(config)), **changes}))


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

    def test_numpy_integer_config_round_trips(self, tmp_path):
        config = ModelConfig(
            T=np.int64(3), K=np.int32(2), quota=CategoryQuota(np.int64(3), 2, np.uint8(1)),
            graph_widths=(np.int64(4), 8), lstm_hidden=np.int16(8), mlp_widths=(8, np.int64(8)),
        )
        params = init_params(config, seed=0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(params, path)
        plain = ModelConfig(
            T=3, K=2, quota=CategoryQuota(3, 2, 1), graph_widths=(4, 8), lstm_hidden=8, mlp_widths=(8, 8)
        )
        assert config.to_json() == plain.to_json()
        loaded = load_checkpoint(path)
        assert loaded.config == config == plain
        for name, arr in loaded.named_arrays():
            np.testing.assert_array_equal(arr, params.arrays()[name])

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
            (lambda d: d.update({"seed": np.array("abc")}), "checkpoint seed: stored <U3"),
            (lambda d: d.update({"seed": np.array([1, 2])}), r"checkpoint seed: stored int64 \(2,\)"),
            (lambda d: d.update({"config": drop_config_field(d["config"], "T")}), r"lacks \['T'\]"),
            (lambda d: d.update({"config": np.array("{")}), "config is not JSON"),
            (
                lambda d: d.update({"config": np.array(ModelConfig().to_json().replace("[20, 10, 10]", "5"))}),
                "wrong type",
            ),
            (lambda d: d.update({"config": edit_config(d["config"], mlp_widths=[8, 8, 8])}), "invalid"),
            (lambda d: d.update({"config": edit_config(d["config"], T=0)}), "invalid"),
            (lambda d: d.update({"config": edit_config(d["config"], lstm_hidden=0)}), "invalid"),
            (lambda d: d.update({"config": edit_config(d["config"], lstm_hidden=8.5)}), "invalid"),
            (lambda d: d.update({"config": edit_config(d["config"], quota=[3.5, 2, 1])}), "CategoryQuota field n_car"),
            (lambda d: d.update({"config": edit_config(d["config"], quota=[True, 2, 1])}), "CategoryQuota field n_car"),
            (lambda d: d.update({"config": edit_config(d["config"], quota=[3, 2])}), r"quota \[3, 2\]"),
            (
                lambda d: d.update({"config": edit_config(d["config"], dropout=0.5, Activation="relu")}),
                r"unknown fields \['Activation', 'dropout'\]",
            ),
            # ReLU is the model's only nonlinearity: a config naming none or another is foreign.
            (lambda d: d.update({"config": drop_config_field(d["config"], "activation")}), r"lacks \['activation'\]"),
            (lambda d: d.update({"config": edit_config(d["config"], activation="identity")}), "'identity' is not 'relu'"),
            (lambda d: d.update({"config": edit_config(d["config"], activation=None)}), "None is not 'relu'"),
            (
                lambda d: d.update({"classifier.b1": d["classifier.b1"].astype(object)}),
                "checkpoint array classifier.b1 cannot be read",
            ),
            # Checkpoints are written in float64 only, and a non-finite weight cannot be a trained one.
            (
                lambda d: d.update({"classifier.w1": d["classifier.w1"].astype(np.float32)}),
                r"classifier\.w1: stored float32 .* expected float64",
            ),
            (
                lambda d: d.update({k: v.astype(np.float16) for k, v in d.items() if v.dtype == np.float64}),
                r"stored float16 .* expected float64",
            ),
            (lambda d: np.put(d["classifier.b_out"], 0, np.nan), r"classifier\.b_out: holds a non-finite value"),
            (lambda d: np.put(d["graph.car.0.weights"], 5, -np.inf), r"graph\.car\.0\.weights: holds a non-finite"),
        ],
        ids=[
            "missing", "extra", "shape", "dtype", "metadata", "seed-string", "seed-vector", "config-field", "config-json",
            "config-type", "config-mlp-depth", "config-T", "config-lstm-hidden", "config-float-size",
            "config-quota-float", "config-quota-bool", "config-quota-length", "config-unknown-keys",
            "config-activation-missing", "config-activation-identity", "config-activation-null",
            "object-tensor", "tensor-float32", "all-float16", "tensor-nan", "tensor-inf",
        ],
    )
    def test_foreign_content_rejected_by_name(self, tiny_model_config, tmp_path, edit, named):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_params(tiny_model_config, seed=9), path)
        self._rewrite(path, edit)
        with pytest.raises(InvalidRecordError, match=named):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change",
        [{"K": 10**9}, {"graph_widths": [10**12, 32]}, {"K": 10**20}, {"lstm_hidden": 10**10}, {"lstm_hidden": 2000}],
        ids=["K-1e9", "graph-width-1e12", "K-1e20", "lstm-hidden-1e10", "lstm-hidden-2000"],
    )
    def test_config_larger_than_its_tensors_fails_before_allocating(self, tiny_model_config, tmp_path, change):
        """The stored config's weights are counted against the stored tensors before any is allocated."""
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_params(tiny_model_config, seed=9), path)
        self._rewrite(path, lambda d: d.update({"config": edit_config(d["config"], **change)}))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidRecordError, match=f"checkpoint {re.escape(str(path))}: .* more weights than"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24  # 16 MiB; an LSTM of 2000 units alone would take 128 MiB per layer

    def test_schema_1_checkpoint_loads_to_stored_probabilities(self):
        """A per-gate checkpoint written before the fused layout predicts exactly as it did."""
        params = load_checkpoint(DATA / "checkpoint_v1_full.npz")
        with np.load(DATA / "checkpoint_v1_full_batch.npz") as batch:
            probs, _, _ = model_forward(batch["features"], batch["mask"], params)
            np.testing.assert_array_equal(probs, batch["probs"])

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.pop("lstm.pedestrian.1.w_g"), "lstm.pedestrian.1.w_g"),
            (lambda d: d.update({"lstm.car.0.w_f": np.zeros(3)}), "lstm.car.0.w_f.*do not stack"),
            (lambda d: d.update({"lstm.car.0.weights": np.zeros(3)}), "lstm.car.0.weights"),
            (
                lambda d: d.update({f"lstm.car.0.w_{g}": d[f"lstm.car.0.w_{g}"].astype(np.float32) for g in "ifgo"}),
                r"lstm\.car\.0\.weights: stored float32 .* expected float64",
            ),
            (lambda d: np.put(d["lstm.car.0.b_f"], 0, np.nan), r"lstm\.car\.0\.bias: holds a non-finite value"),
            (
                lambda d: d.update({"lstm.car.0.w_f": d["lstm.car.0.w_f"].astype(np.float32)}),
                r"lstm\.car\.0\.w_f.*do not stack",
            ),
        ],
        ids=["missing-gate", "gate-shape", "mixed-layouts", "gates-float32", "gate-nan", "gates-mixed-dtypes"],
    )
    def test_schema_1_foreign_content_rejected_by_name(self, tmp_path, edit, named):
        path = tmp_path / "ckpt.npz"
        path.write_bytes((DATA / "checkpoint_v1_full.npz").read_bytes())
        self._rewrite(path, edit)
        with pytest.raises(InvalidRecordError, match=named):
            load_checkpoint(path)

    def test_saved_layout_is_one_pair_per_layer(self, tmp_path):
        params = init_params(ModelConfig(), seed=0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(params, path)
        with np.load(path) as data:
            assert str(data["schema"]) == "speedcast-checkpoint/2"
            tensors = [k for k in data.files if k not in ("schema", "config", "seed")]
        assert len(tensors) == 30  # 3 views x (2 graph + 2 LSTM layers) x 2, plus 6 classifier
        assert params.lstm["car"][0].weights.shape == (32 + 64, 4 * 64)
