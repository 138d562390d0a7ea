"""Parallel per-view LSTM encoders, MLP classifier, and full-model forward/backward.

Every kernel computes in the dtype of its inputs. Parameters, checkpoints,
single-clip inference and the rescoring pass of `evaluation.predict` are
float64; training and `predict`'s bulk pass compute in float32 (see
`train.train`). The backward pass is hand-written reverse mode and is checked
against central finite differences in float64 in the test suite.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import InvalidConfigError, InvalidRecordError, ShapeError, allocating
from .graph import ChebLayerParams, Segments, spatial_encode_backward, spatial_encode_forward
from .ingest import read_archive
from .types import INT64_MAX, NUM_ACTIONS, CategoryQuota, check_field_types

VARIANTS = ("base", "base_single", "base_multi", "base_t", "full")

CHECKPOINT_SCHEMA = "speedcast-checkpoint/2"
_CHECKPOINT_SCHEMA_V1 = "speedcast-checkpoint/1"


def normalize_variant(name: str) -> str:
    """The VARIANTS entry `name` spells, case-free, with '+' or '-' for '_' or no '_' at all."""
    key = name.strip().lower().replace("+", "_").replace("-", "_")
    for variant in VARIANTS:
        if key in (variant, variant.replace("_", "")):
            return variant
    raise InvalidConfigError(f"unknown variant {name!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and problem-setting knobs echoed into every checkpoint.

    The graph layers and the MLP's hidden layers are always rectified (ReLU).
    """

    T: int = field(default=10, metadata={"ge": 1, "le": INT64_MAX})
    FT: int = field(default=1, metadata={"ge": 1, "le": INT64_MAX})
    K: int = field(default=1, metadata={"ge": 0})
    quota: CategoryQuota = field(default_factory=CategoryQuota)
    graph_widths: tuple[int, ...] = field(default=(16, 32), metadata={"ge": 1, "min_len": 1})
    lstm_hidden: int = field(default=64, metadata={"ge": 1})
    lstm_layers: int = field(default=2, metadata={"ge": 1})
    mlp_widths: tuple[int, int] = field(default=(64, 32), metadata={"ge": 1})
    variant: str = "full"

    def __post_init__(self) -> None:
        check_field_types(self)
        object.__setattr__(self, "variant", normalize_variant(self.variant))

    def views(self) -> list[tuple[str, slice]]:
        """(name, node-slice) pairs of the graph views this variant uses."""
        slices = self.quota.slices()
        if self.variant in ("full", "base_multi"):
            return [(v, slices[v]) for v in ("car", "pedestrian", "traffic")]
        if self.variant in ("base", "base_t"):
            return [("car", slices["car"])]
        return [("all", slice(0, self.quota.total))]

    @property
    def temporal(self) -> bool:
        return self.variant in ("full", "base_t")

    @property
    def pooled_dim(self) -> int:
        return self.graph_widths[-1]

    @property
    def classifier_in_dim(self) -> int:
        """Width of the classifier input: one equal block per view."""
        return len(self.views()) * (self.lstm_hidden if self.temporal else self.T * self.pooled_dim)

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        # "activation" is kept so checkpoints keep their bytes and format.
        return json.dumps(d | {"quota": list(astuple(self.quota)), "activation": "relu"})

    @classmethod
    def from_json(cls, payload: str) -> "ModelConfig":
        """Parse `to_json` output; any other payload, an unknown key or an invalid config raises InvalidRecordError.

        The stored `activation` must be "relu": a checkpoint of a model with
        another nonlinearity cannot be run by this one.
        """
        try:
            d = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise InvalidRecordError(f"model config is not JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise InvalidRecordError(f"model config is not a JSON object: {payload[:80]!r}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names + ["activation"] if name not in d]
        if missing:
            raise InvalidRecordError(f"model config lacks {missing}")
        unknown = sorted(d.keys() - {*names, "activation"})
        if unknown:
            raise InvalidRecordError(f"model config has unknown fields {unknown}")
        if d["activation"] != "relu":
            raise InvalidRecordError(f"model config activation {d['activation']!r} is not 'relu'")
        values = {name: tuple(d[name]) if isinstance(d[name], list) else d[name] for name in names}
        quota = values.pop("quota")
        if not isinstance(quota, tuple) or len(quota) != 3:
            raise InvalidRecordError(f"model config has a field of the wrong type: quota {d['quota']!r}")
        try:
            return cls(quota=CategoryQuota(*quota), **values)
        except (InvalidConfigError, InvalidRecordError) as exc:
            raise InvalidRecordError(f"model config is invalid: {exc}") from exc


@dataclass
class LstmLayerParams:
    """One fused-gate LSTM layer: `weights` (in+hidden, 4 hidden), input rows then
    recurrent rows, and `bias` (4 hidden,); column blocks are gates i, f, g, o."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def hidden(self) -> int:
        return self.weights.shape[1] // 4

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0] - self.hidden


@dataclass
class MlpParams:
    """Two rectified hidden layers then the 4-way output affine."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass
class ModelParams:
    """All learnable tensors plus the config echo they were built for."""

    config: ModelConfig
    graph: dict[str, list[ChebLayerParams]]
    lstm: dict[str, list[LstmLayerParams]]
    classifier: MlpParams
    seed: int = 0

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """(path, tensor) pairs in a fixed order; tensors are live references."""
        for kind, stacks in (("graph", self.graph), ("lstm", self.lstm)):
            for view in sorted(stacks):
                for i, layer in enumerate(stacks[view]):
                    yield f"{kind}.{view}.{i}.weights", layer.weights
                    yield f"{kind}.{view}.{i}.bias", layer.bias
        c = self.classifier
        for name in ("w1", "b1", "w2", "b2", "w_out", "b_out"):
            yield f"classifier.{name}", getattr(c, name)

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self.named_arrays())

    def clone(self, dtype: Optional[np.dtype] = None) -> "ModelParams":
        """An independent copy, every tensor cast to `dtype` if one is given.

        No tensor is shared with this instance.
        """
        # deepcopy takes an object found in its memo as that object's copy.
        memo = {} if dtype is None else {id(a): a.astype(dtype) for _, a in self.named_arrays()}
        return copy.deepcopy(self, memo)

    def load_arrays(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every tensor from `values`, which must hold exactly these names and shapes, finite float64."""
        expected = self.arrays()
        missing = sorted(expected.keys() - values.keys())
        extra = sorted(values.keys() - expected.keys())
        if missing or extra:
            raise InvalidRecordError(f"checkpoint tensors: missing {missing}, unexpected {extra}")
        for name, arr in expected.items():
            src = values[name]
            if src.shape != arr.shape or src.dtype != np.float64:
                raise InvalidRecordError(f"{name}: stored {src.dtype} {src.shape}, expected float64 {arr.shape}")
            if not np.isfinite(src).all():
                raise InvalidRecordError(f"{name}: holds a non-finite value")
            arr[...] = src


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded fan-in-scaled uniform init; zero biases except forget gates at +1.

    A weight numpy refuses to shape or cannot allocate raises InvalidConfigError
    naming the variant and K; no bias is larger than the weight made before it.
    """
    rng = np.random.default_rng(seed)

    def weight(shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
        with allocating(f"variant {config.variant} with K={config.K}", f"a {shape} weight"):
            return _glorot(rng, shape, fan_in, fan_out)

    return _build_params(config, seed, weight)


def _build_params(
    config: ModelConfig,
    seed: int,
    weight: Callable[[tuple[int, ...], int, int], np.ndarray],
) -> ModelParams:
    """The tensors `config` needs; `weight(shape, fan_in, fan_out)` makes each weight matrix."""
    graph: dict[str, list[ChebLayerParams]] = {}
    lstm: dict[str, list[LstmLayerParams]] = {}
    widths = (4,) + tuple(config.graph_widths)
    for view, _ in config.views():
        graph[view] = [
            ChebLayerParams(weights=weight((config.K + 1, fin, fout), fin, fout), bias=np.zeros(fout))
            for fin, fout in zip(widths[:-1], widths[1:])
        ]
        if config.temporal:
            lstm_layers = []
            in_dim = config.pooled_dim
            h = config.lstm_hidden
            for _ in range(config.lstm_layers):
                # One (in+h, h) block per gate, drawn in gate order with its own fan-out.
                lstm_layers.append(
                    LstmLayerParams(
                        weights=np.concatenate(weight((4, in_dim + h, h), in_dim + h, h), axis=1),
                        bias=np.repeat([0.0, 1.0, 0.0, 0.0], h),
                    )
                )
                in_dim = h
            lstm[view] = lstm_layers
    f_in = config.classifier_in_dim
    h1, h2 = config.mlp_widths
    classifier = MlpParams(
        w1=weight((f_in, h1), f_in, h1),
        b1=np.zeros(h1),
        w2=weight((h1, h2), h1, h2),
        b2=np.zeros(h2),
        w_out=weight((h2, NUM_ACTIONS), h2, NUM_ACTIONS),
        b_out=np.zeros(NUM_ACTIONS),
    )
    return ModelParams(config=config, graph=graph, lstm=lstm, classifier=classifier, seed=seed)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def _gate_affine(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """(scale, offset) per fused column: gate = scale * tanh(scale * a) + offset.

    On the sigmoid blocks (i, f, o) this is sigmoid(a) = 0.5 (1 + tanh(a / 2)),
    which needs no branch on the sign of `a` and cannot overflow; on g it is
    tanh(a). Scaling by a power of two is exact in floating point, so folding
    the inner scale into the weights changes no bit of the pre-activation.
    """
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hidden)
    return scale, np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=dtype), hidden)


def lstm_forward(
    h_seq: np.ndarray, layers: list[LstmLayerParams]
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Run stacked layers left to right from zero state.

    h_seq: (B, T, d). Returns the top layer's last hidden state (B, hidden)
    and, per layer, time-major (T, B, .) arrays for BPTT: the input `x`, the
    post-activation `gates` (blocks i, f, g, o), the cell state `c`, `tc` =
    tanh(c) and the hidden state `h`, which is also the next layer's `x`.
    Each layer projects all T inputs with one matmul and then does one
    recurrent matmul per step. Buffers take the dtype of `h_seq`.
    """
    if h_seq.ndim != 3 or h_seq.shape[1] < 1:
        raise ShapeError(f"sequence must be (B, T>=1, d), got {h_seq.shape}")
    b, t_len, width = h_seq.shape
    if layers and width != layers[0].in_dim:
        raise ShapeError(f"sequence width {width} != layer in_dim {layers[0].in_dim}")
    dtype = h_seq.dtype
    x = np.ascontiguousarray(h_seq.transpose(1, 0, 2))
    cache: list[dict[str, np.ndarray]] = []
    for layer in layers:
        hid = layer.hidden
        scale, offset = _gate_affine(hid, dtype)
        w = layer.weights * scale
        wx, wh = w[: layer.in_dim], w[layer.in_dim :]
        gates = np.empty((t_len, b, 4 * hid), dtype=dtype)
        np.matmul(x.reshape(t_len * b, layer.in_dim), wx, out=gates.reshape(t_len * b, 4 * hid))
        gates += layer.bias * scale
        blocks = gates.reshape(t_len, b, 4, hid).transpose(0, 2, 1, 3)
        c = np.empty((t_len, b, hid), dtype=dtype)
        tc = np.empty_like(c)
        h = np.empty_like(c)
        for t in range(t_len):
            a = gates[t]
            if t:
                a += h[t - 1] @ wh
            np.tanh(a, out=a)
            a *= scale
            a += offset
            i, f, g, o = blocks[t]
            np.multiply(i, g, out=c[t])
            if t:
                c[t] += f * c[t - 1]
            np.tanh(c[t], out=tc[t])
            np.multiply(o, tc[t], out=h[t])
        cache.append({"x": x, "gates": gates, "c": c, "tc": tc, "h": h})
        x = h
    return x[-1], cache


def lstm_backward(
    d_final: np.ndarray, cache: list[dict[str, np.ndarray]], layers: list[LstmLayerParams]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """BPTT from the final top hidden state back to the input sequence.

    Returns (d_input_seq (B, T, d), per-layer (dweights, dbias)). Each step
    does one recurrent matmul; the weight, bias and input gradients of a layer
    come from one matmul or sum over all steps. All layers share one buffer
    for the gradient at their pre-activations, sized for the widest layer.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    dx = None
    da_buffer = np.empty(max(lc["gates"].size for lc in cache), dtype=cache[-1]["gates"].dtype)
    for lc, layer in zip(reversed(cache), reversed(layers)):
        da = da_buffer[: lc["gates"].size].reshape(lc["gates"].shape)
        dx, layer_grads = _lstm_layer_backward(d_final, dx, lc, layer, da)
        grads.append(layer_grads)
    return dx.transpose(1, 0, 2), grads[::-1]


def _lstm_layer_backward(
    d_last: np.ndarray,
    d_seq: Optional[np.ndarray],
    lc: dict[str, np.ndarray],
    layer: LstmLayerParams,
    da: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """BPTT through one layer: (dx (T, B, in), (dweights, dbias)).

    The gradient reaching the layer's outputs is `d_seq` (T, B, hidden) from
    the layer above or, when that is None, `d_last` (B, hidden) at the last
    step only. `da`, shaped like the cached gates, is scratch space for the
    gradient at the fused pre-activations; no returned array aliases it.
    """
    hid, in_dim = layer.hidden, layer.in_dim
    x, gates, c, tc, h = lc["x"], lc["gates"], lc["c"], lc["tc"], lc["h"]
    t_len, b, _ = gates.shape
    wh_t = layer.weights[in_dim:].T
    gate_blocks = gates.reshape(t_len, b, 4, hid).transpose(0, 2, 1, 3)
    upstream = np.empty((b, 4 * hid), dtype=gates.dtype)
    u_i, u_f, u_g, u_o = upstream.reshape(b, 4, hid).transpose(1, 0, 2)
    dh = d_last if d_seq is None else d_seq[-1]
    dc = np.zeros((b, hid), dtype=gates.dtype)
    for t in range(t_len - 1, -1, -1):
        if t < t_len - 1:
            dh = da[t + 1] @ wh_t
            if d_seq is not None:
                dh += d_seq[t]
        i, f, g, o = gate_blocks[t]
        da_t = da[t]
        # Each gate's derivative at its pre-activation, s (1 - s) on the
        # sigmoid blocks and 1 - g^2 on g, times its upstream factor.
        np.subtract(1.0, gates[t], out=da_t)
        da_t *= gates[t]
        da_g = da_t[:, 2 * hid : 3 * hid]
        np.multiply(g, g, out=da_g)
        np.subtract(1.0, da_g, out=da_g)
        tc_t = tc[t]
        np.multiply(dh, tc_t, out=u_o)
        dc_t = tc_t * tc_t  # dc += dh o (1 - tanh(c)^2)
        np.subtract(1.0, dc_t, out=dc_t)
        dc_t *= o
        dc_t *= dh
        dc += dc_t
        np.multiply(dc, g, out=u_i)
        if t:
            np.multiply(dc, c[t - 1], out=u_f)
        else:
            u_f[...] = 0.0  # c starts at zero
        np.multiply(dc, i, out=u_g)
        da_t *= upstream
        dc *= f
    flat = da.reshape(t_len * b, 4 * hid)
    dw = np.concatenate(
        [
            x.reshape(t_len * b, in_dim).T @ flat,
            h[:-1].reshape(-1, hid).T @ flat[b:],  # step 0 saw h = 0
        ]
    )
    db = flat.sum(axis=0)
    dx = (flat @ layer.weights[:in_dim].T).reshape(t_len, b, in_dim)
    return dx, (dw, db)


# ---------------------------------------------------------------------------
# The two stages, encode a view and classify, and the full model
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def encode_view(
    frames: np.ndarray, mask: np.ndarray, windows: np.ndarray, params: ModelParams, view: str
) -> tuple[np.ndarray, tuple]:
    """One view's clip vectors (B, d) from its slots of a frame table read through `windows`, as in `model_forward`.

    The graph encoder runs once per frame, and the pooled rows gathered into the
    clips' steps go through the view's LSTM or, without one, are flattened. A
    frame with no real node in the view pools to the zero vector, so every clip
    whose steps all read such frames (a blank clip) has the same all-zero
    sequence. The LSTM runs on every clip but the blank ones after the first,
    which take the first blank clip's vector; with at most one blank clip it
    runs on all of them. The cache is (graph cache, LSTM cache, the clips the
    LSTM ran as a (B,) mask, each clip's row of the LSTM batch as a (B,) index),
    the last three None for a flatten.
    """
    pooled, spatial = spatial_encode_forward(frames, mask, params.graph[view])
    if not params.config.temporal:
        width = windows.shape[1] * pooled.shape[1]  # numpy cannot infer -1 for zero clips
        return pooled[windows].reshape(len(windows), width), (spatial, None, None, None)
    blank = (~mask.any(axis=1))[windows].all(axis=1)
    first = blank.argmax() if blank.any() else len(blank)  # the first blank clip, or past the last one
    run = ~blank
    run[first : first + 1] = True
    vector, lstm = lstm_forward(pooled[windows[run]], params.lstm[view])
    row = run.cumsum() - 1
    row[blank] = first  # every clip before the first blank one runs
    return vector[row], (spatial, lstm, run, row)


def encode_view_backward(
    dv: np.ndarray, cache: tuple, params: ModelParams, view: str, frames: Segments
) -> dict[str, np.ndarray]:
    """The view's graph and LSTM gradients from `dv`, the gradient at its vectors, keyed as `named_arrays`.

    `frames` groups the flat clip steps by the frame they read. Each frame's
    pooled gradient is the sum over those steps, added in `Segments.sum`'s order.
    BPTT runs once on the clips the forward ran, the shared blank row's final
    gradient being the sum of its clips' `dv` in clip order: BPTT is linear in
    it along their shared forward path. Each clip's step gradients are its
    row's; a blank clip's steps read only frames with no real node, whose
    pooled gradient `spatial_encode_backward` never reads.
    """
    spatial, lstm, run, row = cache
    if lstm is None:
        dsteps, lstm_grads = dv, []
    else:
        d_final = dv[run]
        np.add.at(d_final, row[~run], dv[~run])  # later blank clips onto the shared row, in clip order
        dseq, lstm_grads = lstm_backward(d_final, lstm, params.lstm[view])
        dsteps = dseq[row]
    dsteps = dsteps.reshape(-1, params.config.pooled_dim)
    dpooled = frames.scatter(frames.sum(dsteps[frames.rows]))
    graph_grads = spatial_encode_backward(dpooled, spatial, params.graph[view])
    grads = {}
    for kind, layer_grads in (("graph", graph_grads), ("lstm", lstm_grads)):
        for i, (dw, dbias) in enumerate(layer_grads):
            grads[f"{kind}.{view}.{i}.weights"] = dw
            grads[f"{kind}.{view}.{i}.bias"] = dbias
    return grads


def classify(v: np.ndarray, p: MlpParams) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(probs, logits, cache) of the MLP on `v`, the views' vectors concatenated in `views()` order."""
    h1 = v @ p.w1 + p.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ p.w2 + p.b2
    np.maximum(h2, 0.0, out=h2)
    logits = h2 @ p.w_out + p.b_out
    return softmax(logits), logits, (v, h1, h2)


def classify_backward(dlogits: np.ndarray, cache: tuple, p: MlpParams) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(dv, the classifier's gradients keyed as `named_arrays`) from the logit gradients."""
    v, h1, h2 = cache
    grads = {"classifier.w_out": h2.T @ dlogits, "classifier.b_out": dlogits.sum(axis=0)}
    dh2 = dlogits @ p.w_out.T
    dz2 = dh2 * (h2 > 0.0).astype(h2.dtype)
    grads["classifier.w2"] = h1.T @ dz2
    grads["classifier.b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ p.w2.T
    dz1 = dh1 * (h1 > 0.0).astype(h1.dtype)
    grads["classifier.w1"] = v.T @ dz1
    grads["classifier.b1"] = dz1.sum(axis=0)
    return dz1 @ p.w1.T, grads


def model_forward(
    features: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    windows: Optional[np.ndarray] = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, np.ndarray, Optional[tuple]]:
    """Batched forward to (probs, logits, cache), on a frame table or on expanded clips.

    With `windows` (B, T), `features` (U, N, 4) and `mask` (U, N) are a table of
    frames and step t of clip b is row `windows[b, t]`: each view's graph
    encoder runs once per frame, however many clips share it, and the pooled
    rows are gathered into the clips' steps. Without it, `features` (B, T, N, 4)
    and `mask` (B, T, N) are the clips' steps themselves, read as a table of
    B * T frames with `windows = arange(B * T).reshape(B, T)`.

    With `keep_cache=False`, for inference, each view's graph and LSTM cache is
    dropped once its output is taken and the cache returned is None; the
    probabilities and logits are the same bits either way.
    """
    cfg = params.config
    n = cfg.quota.total
    expected = (cfg.T, n, 4) if windows is None else (n, 4)
    if features.ndim != len(expected) + 1 or features.shape[1:] != expected:
        raise ShapeError(f"features {features.shape} do not match config (T={cfg.T}, N={n})")
    if mask.shape != features.shape[:-1] or mask.dtype != np.bool_:
        raise ShapeError(f"mask {mask.dtype} {mask.shape} must be bool {features.shape[:-1]}")
    if windows is None:
        windows = np.arange(len(features) * cfg.T).reshape(len(features), cfg.T)
        features, mask = features.reshape(-1, n, 4), mask.reshape(-1, n)
    elif windows.ndim != 2 or windows.shape[1] != cfg.T or windows.dtype.kind not in "iu":
        raise ShapeError(f"windows {windows.dtype} {windows.shape} must be (B, T={cfg.T}) integers")
    elif windows.size and not 0 <= windows.min() <= windows.max() < len(features):
        raise ShapeError(f"windows hold frame indices outside [0, {len(features)})")
    vectors, view_caches = [], {}
    for view, block in cfg.views():
        vector, view_caches[view] = encode_view(features[:, block], mask[:, block], windows, params, view)
        vectors.append(vector)
        if not keep_cache:
            del view_caches[view]  # freed before the next view runs
    probs, logits, classifier_cache = classify(np.concatenate(vectors, axis=1), params.classifier)
    if not keep_cache:
        return probs, logits, None
    return probs, logits, (view_caches, classifier_cache, windows, len(features))


def model_backward(dlogits: np.ndarray, cache: tuple, params: ModelParams) -> dict[str, np.ndarray]:
    """Reverse mode from logit gradients to every parameter tensor, keyed as `named_arrays`.

    No gradient with respect to the input frames is formed: nothing in
    training or the gradient check reads one.
    """
    view_caches, classifier_cache, windows, n_frames = cache
    dv, grads = classify_backward(dlogits, classifier_cache, params.classifier)
    # Each frame's steps, grouped once and shared by the views.
    frames = Segments.from_groups(windows.ravel(), n_frames)
    for (view, view_cache), dpart in zip(view_caches.items(), np.split(dv, len(view_caches), axis=1)):
        grads |= encode_view_backward(dpart, view_cache, params, view, frames)
    return grads


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    np.savez(
        path,
        schema=np.array(CHECKPOINT_SCHEMA),
        config=np.array(params.config.to_json()),
        seed=np.array(params.seed, dtype=np.int64),
        **params.arrays(),
    )


_CHECKPOINT_META = ("schema", "config", "seed")


def _stack_v1_gates(tensors: dict[str, np.ndarray], params: ModelParams) -> None:
    """Stack the eight schema /1 per-gate tensors of each LSTM layer into `weights` and `bias`."""
    for view, layers in params.lstm.items():
        for i in range(len(layers)):
            for field_name, axis in (("weights", 1), ("bias", 0)):
                name = f"lstm.{view}.{i}.{field_name}"
                if name in tensors:
                    raise InvalidRecordError(f"checkpoint tensors: unexpected {name} in a /1 file")
                parts = [f"lstm.{view}.{i}.{field_name[0]}_{gate}" for gate in "ifgo"]
                try:
                    # casting="no": a gate stored in another dtype must not be upcast to pass the dtype check.
                    gates = [tensors.pop(part) for part in parts]
                    tensors[name] = np.concatenate(gates, axis=axis, dtype=gates[0].dtype, casting="no")
                except KeyError as exc:
                    raise InvalidRecordError(f"checkpoint tensors: missing {exc}") from exc
                except (ValueError, TypeError) as exc:
                    raise InvalidRecordError(f"{parts}: per-gate tensors do not stack: {exc}") from exc


def load_checkpoint(path: str | Path) -> ModelParams:
    """Rebuild the parameters `save_checkpoint` wrote, at this schema or at /1.

    A file that is not an `.npz` archive, a corrupt array or one numpy reads only by
    unpickling, a missing field or tensor, a config that lacks a field, has an unknown
    one or describes more weights than the file stores, an unexpected tensor, or a
    tensor of the wrong shape, not float64 or not finite raises InvalidRecordError naming it.
    """
    tensors = read_archive(path, "checkpoint")
    missing = [key for key in _CHECKPOINT_META if key not in tensors]
    if missing:
        raise InvalidRecordError(f"checkpoint lacks {missing}")
    schema = str(tensors.pop("schema"))
    if schema not in (CHECKPOINT_SCHEMA, _CHECKPOINT_SCHEMA_V1):
        raise InvalidRecordError(f"unexpected checkpoint schema {schema!r}")
    config = ModelConfig.from_json(str(tensors.pop("config")))
    seed = tensors.pop("seed")
    if seed.shape != () or seed.dtype.kind not in "iu":
        raise InvalidRecordError(f"checkpoint seed: stored {seed.dtype} {seed.shape}, expected one integer")
    # A config far larger than the file's tensors fails before its weights are allocated.
    unclaimed = sum(arr.size for arr in tensors.values())  # no bias outgrows its weight

    def empty(shape: tuple[int, ...], *_: int) -> np.ndarray:
        nonlocal unclaimed
        unclaimed -= math.prod(shape)
        if unclaimed < 0:
            raise InvalidRecordError(f"checkpoint {path}: its model config describes more weights than it stores")
        return np.empty(shape)

    params = _build_params(config, int(seed), empty)
    if schema == _CHECKPOINT_SCHEMA_V1:
        _stack_v1_gates(tensors, params)
    params.load_arrays(tensors)
    return params
