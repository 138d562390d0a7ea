"""Parallel per-view LSTM encoders, MLP classifier, and full-model forward/backward.

All math is float64 numpy; the backward pass is hand-written reverse mode and
is checked against central finite differences in the test suite.
"""
from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import InvalidConfigError, InvalidRecordError, ShapeError
from .graph import (
    ACTIVATIONS,
    ChebLayerParams,
    spatial_encode_backward,
    spatial_encode_forward,
)
from .types import NUM_ACTIONS, CategoryQuota

VARIANTS = ("base", "base_single", "base_multi", "base_t", "full")

CHECKPOINT_SCHEMA = "speedcast-checkpoint/1"


def normalize_variant(name: str) -> str:
    key = name.strip().lower().replace("+", "_").replace("-", "_")
    aliases = {
        "base": "base",
        "base_single": "base_single",
        "basesingle": "base_single",
        "base_multi": "base_multi",
        "basemulti": "base_multi",
        "base_t": "base_t",
        "baset": "base_t",
        "full": "full",
    }
    if key not in aliases:
        raise InvalidConfigError(f"unknown variant {name!r}; expected one of {VARIANTS}")
    return aliases[key]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and problem-setting knobs echoed into every checkpoint."""

    T: int = 10
    FT: int = 1
    K: int = 1
    quota: CategoryQuota = field(default_factory=CategoryQuota)
    graph_widths: tuple[int, int] = (16, 32)
    lstm_hidden: int = 64
    lstm_layers: int = 2
    mlp_widths: tuple[int, int] = (64, 32)
    variant: str = "full"
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.T < 1 or self.FT < 1 or self.K < 0:
            raise InvalidConfigError(f"bad dims T={self.T} FT={self.FT} K={self.K}")
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
        per_view = self.lstm_hidden if self.temporal else self.T * self.pooled_dim
        return len(self.views()) * per_view

    def to_json(self) -> str:
        return json.dumps(
            {
                "T": self.T,
                "FT": self.FT,
                "K": self.K,
                "quota": [self.quota.n_car, self.quota.n_pedestrian, self.quota.n_traffic],
                "graph_widths": list(self.graph_widths),
                "lstm_hidden": self.lstm_hidden,
                "lstm_layers": self.lstm_layers,
                "mlp_widths": list(self.mlp_widths),
                "variant": self.variant,
                "activation": self.activation,
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "ModelConfig":
        d = json.loads(payload)
        return cls(
            T=d["T"],
            FT=d["FT"],
            K=d["K"],
            quota=CategoryQuota(*d["quota"]),
            graph_widths=tuple(d["graph_widths"]),
            lstm_hidden=d["lstm_hidden"],
            lstm_layers=d["lstm_layers"],
            mlp_widths=tuple(d["mlp_widths"]),
            variant=d["variant"],
            activation=d["activation"],
        )


@dataclass
class LstmLayerParams:
    """One LSTM layer; each gate weight is (in+hidden, hidden)."""

    w_i: np.ndarray
    w_f: np.ndarray
    w_g: np.ndarray
    w_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_g: np.ndarray
    b_o: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_i.shape[1]

    @property
    def in_dim(self) -> int:
        return self.w_i.shape[0] - self.hidden


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
        for view in sorted(self.graph):
            for i, layer in enumerate(self.graph[view]):
                yield f"graph.{view}.{i}.weights", layer.weights
                yield f"graph.{view}.{i}.bias", layer.bias
        for view in sorted(self.lstm):
            for i, layer in enumerate(self.lstm[view]):
                for gate in ("i", "f", "g", "o"):
                    yield f"lstm.{view}.{i}.w_{gate}", getattr(layer, f"w_{gate}")
                for gate in ("i", "f", "g", "o"):
                    yield f"lstm.{view}.{i}.b_{gate}", getattr(layer, f"b_{gate}")
        c = self.classifier
        for name in ("w1", "b1", "w2", "b2", "w_out", "b_out"):
            yield f"classifier.{name}", getattr(c, name)

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self.named_arrays())

    def clone(self) -> "ModelParams":
        """An independent copy: no tensor is shared with this instance."""
        return copy.deepcopy(self)

    def load_arrays(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every tensor from `values`, which must hold exactly these names and shapes."""
        expected = self.arrays()
        missing = sorted(expected.keys() - values.keys())
        extra = sorted(values.keys() - expected.keys())
        if missing or extra:
            raise InvalidRecordError(f"checkpoint tensors: missing {missing}, unexpected {extra}")
        for name, arr in expected.items():
            src = values[name]
            if src.shape != arr.shape or src.dtype.kind != "f":
                raise InvalidRecordError(
                    f"{name}: stored {src.dtype} {src.shape}, expected float {arr.shape}"
                )
            arr[...] = src


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded fan-in-scaled uniform init; zero biases except forget gates at +1."""
    rng = np.random.default_rng(seed)
    return _build_params(config, seed, functools.partial(_glorot, rng))


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
        layers = []
        for fin, fout in zip(widths[:-1], widths[1:]):
            layers.append(
                ChebLayerParams(
                    weights=weight((config.K + 1, fin, fout), fin, fout),
                    bias=np.zeros(fout),
                )
            )
        graph[view] = layers
        if config.temporal:
            lstm_layers = []
            in_dim = config.pooled_dim
            for _ in range(config.lstm_layers):
                h = config.lstm_hidden
                lstm_layers.append(
                    LstmLayerParams(
                        w_i=weight((in_dim + h, h), in_dim + h, h),
                        w_f=weight((in_dim + h, h), in_dim + h, h),
                        w_g=weight((in_dim + h, h), in_dim + h, h),
                        w_o=weight((in_dim + h, h), in_dim + h, h),
                        b_i=np.zeros(h),
                        b_f=np.ones(h),
                        b_g=np.zeros(h),
                        b_o=np.zeros(h),
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_cell_step(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LstmLayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """One standard LSTM cell update; accepts vectors or batches."""
    if x.shape[-1] != layer.in_dim or h.shape[-1] != layer.hidden:
        raise ShapeError(
            f"cell input widths ({x.shape[-1]}, {h.shape[-1]}) do not match "
            f"layer ({layer.in_dim}, {layer.hidden})"
        )
    z = np.concatenate([x, h], axis=-1)
    i = _sigmoid(z @ layer.w_i + layer.b_i)
    f = _sigmoid(z @ layer.w_f + layer.b_f)
    g = np.tanh(z @ layer.w_g + layer.b_g)
    o = _sigmoid(z @ layer.w_o + layer.b_o)
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def lstm_forward(
    h_seq: np.ndarray, layers: list[LstmLayerParams]
) -> tuple[np.ndarray, list[list[dict]]]:
    """Run stacked layers left to right from zero state.

    h_seq: (B, T, d). Returns the top layer's last hidden state (B, hidden)
    and per-layer, per-step caches for BPTT.
    """
    if h_seq.ndim != 3 or h_seq.shape[1] < 1:
        raise ShapeError(f"sequence must be (B, T>=1, d), got {h_seq.shape}")
    b, t_len, _ = h_seq.shape
    cache: list[list[dict]] = []
    x_seq = h_seq
    for layer in layers:
        hid = layer.hidden
        h = np.zeros((b, hid))
        c = np.zeros((b, hid))
        steps = []
        outs = np.empty((b, t_len, hid))
        for t in range(t_len):
            z = np.concatenate([x_seq[:, t, :], h], axis=-1)
            i = _sigmoid(z @ layer.w_i + layer.b_i)
            f = _sigmoid(z @ layer.w_f + layer.b_f)
            g = np.tanh(z @ layer.w_g + layer.b_g)
            o = _sigmoid(z @ layer.w_o + layer.b_o)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h = o * tc
            steps.append({"z": z, "i": i, "f": f, "g": g, "o": o, "c_prev": c, "tc": tc})
            c = c_new
            outs[:, t, :] = h
        cache.append(steps)
        x_seq = outs
    return x_seq[:, -1, :], cache


def lstm_backward(
    d_final: np.ndarray, cache: list[list[dict]], layers: list[LstmLayerParams]
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """BPTT from the final top hidden state back to the input sequence.

    Returns (d_input_seq, per-layer gradient dicts keyed like the param fields).
    """
    t_len = len(cache[0])
    b = d_final.shape[0]
    grads: list[dict[str, np.ndarray]] = [
        {name: np.zeros_like(getattr(layer, name)) for name in
         ("w_i", "w_f", "w_g", "w_o", "b_i", "b_f", "b_g", "b_o")}
        for layer in layers
    ]
    # dh_out[t] for the top layer: nonzero only at the last step.
    dh_out = np.zeros((b, t_len, layers[-1].hidden))
    dh_out[:, -1, :] = d_final
    for li in range(len(layers) - 1, -1, -1):
        layer = layers[li]
        steps = cache[li]
        g = grads[li]
        in_dim = layer.in_dim
        dx_seq = np.zeros((b, t_len, in_dim))
        dh = np.zeros((b, layer.hidden))
        dc = np.zeros((b, layer.hidden))
        for t in range(t_len - 1, -1, -1):
            s = steps[t]
            dh_t = dh_out[:, t, :] + dh
            do = dh_t * s["tc"]
            dc = dc + dh_t * s["o"] * (1.0 - s["tc"] ** 2)
            di = dc * s["g"]
            dg = dc * s["i"]
            df = dc * s["c_prev"]
            dc = dc * s["f"]
            da_i = di * s["i"] * (1.0 - s["i"])
            da_f = df * s["f"] * (1.0 - s["f"])
            da_g = dg * (1.0 - s["g"] ** 2)
            da_o = do * s["o"] * (1.0 - s["o"])
            z = s["z"]
            g["w_i"] += z.T @ da_i
            g["w_f"] += z.T @ da_f
            g["w_g"] += z.T @ da_g
            g["w_o"] += z.T @ da_o
            g["b_i"] += da_i.sum(axis=0)
            g["b_f"] += da_f.sum(axis=0)
            g["b_g"] += da_g.sum(axis=0)
            g["b_o"] += da_o.sum(axis=0)
            dz = da_i @ layer.w_i.T + da_f @ layer.w_f.T + da_g @ layer.w_g.T + da_o @ layer.w_o.T
            dx_seq[:, t, :] = dz[:, :in_dim]
            dh = dz[:, in_dim:]
        dh_out = dx_seq
    return dh_out, grads


# ---------------------------------------------------------------------------
# Classifier and full model
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _mlp_forward(v: np.ndarray, p: MlpParams, activation: str) -> tuple[np.ndarray, dict]:
    act, _ = ACTIVATIONS[activation]
    z1 = v @ p.w1 + p.b1
    h1 = act(z1)
    z2 = h1 @ p.w2 + p.b2
    h2 = act(z2)
    logits = h2 @ p.w_out + p.b_out
    return logits, {"v": v, "z1": z1, "h1": h1, "z2": z2, "h2": h2, "activation": activation}


def _mlp_backward(dlogits: np.ndarray, cache: dict, p: MlpParams) -> tuple[np.ndarray, dict]:
    _, grad = ACTIVATIONS[cache["activation"]]
    g = {
        "w_out": cache["h2"].T @ dlogits,
        "b_out": dlogits.sum(axis=0),
    }
    dh2 = dlogits @ p.w_out.T
    dz2 = dh2 * grad(cache["z2"])
    g["w2"] = cache["h1"].T @ dz2
    g["b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ p.w2.T
    dz1 = dh1 * grad(cache["z1"])
    g["w1"] = cache["v"].T @ dz1
    g["b1"] = dz1.sum(axis=0)
    dv = dz1 @ p.w1.T
    return dv, g


def model_forward(
    features: np.ndarray, mask: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Batched forward: (B, T, N, 4) -> (probs, logits, cache)."""
    cfg = params.config
    if features.ndim != 4 or features.shape[1:] != (cfg.T, cfg.quota.total, 4):
        raise ShapeError(
            f"features {features.shape} do not match config (T={cfg.T}, N={cfg.quota.total})"
        )
    if mask.shape != features.shape[:3] or mask.dtype != np.bool_:
        raise ShapeError(f"mask {mask.dtype} {mask.shape} must be bool {features.shape[:3]}")
    b = features.shape[0]
    parts = []
    view_caches = {}
    for view, block in cfg.views():
        x = features[:, :, block, :]
        m = mask[:, :, block]
        pooled, sc = spatial_encode_forward(x, m, params.graph[view], cfg.activation)
        vc = {"spatial": sc, "block": block}
        if cfg.temporal:
            final, lc = lstm_forward(pooled, params.lstm[view])
            vc["lstm"] = lc
            parts.append(final)
        else:
            parts.append(pooled.reshape(b, -1))
        view_caches[view] = vc
    v = np.concatenate(parts, axis=1)
    logits, mlp_cache = _mlp_forward(v, params.classifier, cfg.activation)
    probs = softmax(logits)
    return probs, logits, {"views": view_caches, "mlp": mlp_cache, "batch": b}


def model_backward(
    dlogits: np.ndarray,
    cache: dict,
    params: ModelParams,
    want_input_grad: bool = False,
) -> tuple[dict[str, np.ndarray], Optional[np.ndarray]]:
    """Reverse mode from logit gradients to every parameter tensor."""
    cfg = params.config
    b = cache["batch"]
    dv, mlp_grads = _mlp_backward(dlogits, cache["mlp"], params.classifier)
    grads = {f"classifier.{k}": v for k, v in mlp_grads.items()}
    dfeatures = (
        np.zeros((b, cfg.T, cfg.quota.total, 4)) if want_input_grad else None
    )
    offset = 0
    per_view = cfg.lstm_hidden if cfg.temporal else cfg.T * cfg.pooled_dim
    for view, block in cfg.views():
        dpart = dv[:, offset : offset + per_view]
        offset += per_view
        vc = cache["views"][view]
        if cfg.temporal:
            dpooled, lstm_grads = lstm_backward(dpart, vc["lstm"], params.lstm[view])
            for i, layer_g in enumerate(lstm_grads):
                for name, arr in layer_g.items():
                    grads[f"lstm.{view}.{i}.{name}"] = arr
        else:
            dpooled = dpart.reshape(b, cfg.T, cfg.pooled_dim)
        dx, graph_grads = spatial_encode_backward(dpooled, vc["spatial"], params.graph[view])
        for i, (dw, dbias) in enumerate(graph_grads):
            grads[f"graph.{view}.{i}.weights"] = dw
            grads[f"graph.{view}.{i}.bias"] = dbias
        if dfeatures is not None:
            dfeatures[:, :, vc["block"], :] += dx
    return grads, dfeatures


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    payload = {name: arr for name, arr in params.named_arrays()}
    np.savez(
        path,
        schema=np.array(CHECKPOINT_SCHEMA),
        config=np.array(params.config.to_json()),
        seed=np.array(params.seed, dtype=np.int64),
        **payload,
    )


_CHECKPOINT_META = ("schema", "config", "seed")


def load_checkpoint(path: str | Path) -> ModelParams:
    """Rebuild the parameters `save_checkpoint` wrote.

    A missing field or tensor, an unexpected tensor, or a tensor of the wrong
    shape or dtype raises InvalidRecordError naming it.
    """
    with np.load(path, allow_pickle=False) as data:
        missing = [key for key in _CHECKPOINT_META if key not in data.files]
        if missing:
            raise InvalidRecordError(f"checkpoint lacks {missing}")
        schema = str(data["schema"])
        if schema != CHECKPOINT_SCHEMA:
            raise InvalidRecordError(f"unexpected checkpoint schema {schema!r}")
        config = ModelConfig.from_json(str(data["config"]))
        params = _build_params(config, int(data["seed"]), lambda shape, *_: np.empty(shape))
        params.load_arrays({k: data[k] for k in data.files if k not in _CHECKPOINT_META})
    return params
