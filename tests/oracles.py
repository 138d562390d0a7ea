"""Reference implementations the tests check the library's fast paths against.

The library runs one graph layer (the ragged closed-form Chebyshev layer in
`speedcast.graph`) and one LSTM (the fused-gate `speedcast.model.lstm_forward`).
Here the same model is written the slow, textbook way: one dense normalized
Laplacian and Chebyshev recurrence per graph (Defferrard et al., NeurIPS 2016),
its eigendecomposition twin, a masked max pool, and a per-gate LSTM cell run one
step at a time. Inputs are trusted; nothing here validates shapes. The model
is rectified; the dense layer oracles can also run linear, for spectral checks.

`reference_session` is the synthetic session generator written frame by frame,
one scalar RNG draw at a time, with its own box, clamp and pedal helpers.
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from speedcast.graph import ChebLayerParams
from speedcast.ingest import ACCEL_THRESHOLD_PCT, BRAKE_THRESHOLD_KPA
from speedcast.model import LstmLayerParams, ModelParams
from speedcast.synth import (
    CLOSING_RANGES,
    IMAGE_H,
    IMAGE_W,
    START_DISTANCES,
    LatentState,
    SynthConfig,
    oracle_label,
)
from speedcast.types import Action, DetectedObject, FrameDetections, SensorSample

ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}


def adjacency_from_mask(mask: np.ndarray) -> np.ndarray:
    """All-ones block over real nodes (self-loops included); padded nodes isolated."""
    m = np.asarray(mask, dtype=np.float64)
    return np.outer(m, m) + np.diag(1.0 - m)


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with row-sum degrees."""
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


@dataclass
class GraphOperator:
    """One graph's rescaled Laplacian L_tilde = L - I."""

    l_tilde: np.ndarray

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "GraphOperator":
        return cls(normalized_laplacian(a) - np.eye(a.shape[0]))


def chebyshev_basis(l_tilde: np.ndarray, order: int) -> list[np.ndarray]:
    """T_0..T_order of the rescaled Laplacian via the three-term recurrence."""
    basis = [np.eye(l_tilde.shape[0])]
    if order >= 1:
        basis.append(l_tilde.copy())
    for _ in range(2, order + 1):
        basis.append(2.0 * l_tilde @ basis[-1] - basis[-2])
    return basis


def cheb_conv(
    x: np.ndarray, graph: GraphOperator, params: ChebLayerParams, activation: str = "relu"
) -> np.ndarray:
    """Dense convolution: act( sum_k T_k(L_tilde) X W_k + b )."""
    basis = chebyshev_basis(graph.l_tilde, params.order)
    z = sum(t_k @ x @ w_k for t_k, w_k in zip(basis, params.weights))
    return ACTIVATIONS[activation](z + params.bias)


def cheb_conv_spectral(
    x: np.ndarray, graph: GraphOperator, params: ChebLayerParams, activation: str = "relu"
) -> np.ndarray:
    """Eigendecomposition form of cheb_conv: T_k applied to eigenvalues."""
    lam, u = np.linalg.eigh(graph.l_tilde)
    z = np.zeros((x.shape[0], params.bias.size))
    for k in range(params.order + 1):
        tk_scalar = np.cos(k * np.arccos(np.clip(lam, -1.0, 1.0)))
        tk = (u * tk_scalar) @ u.T
        z += tk @ x @ params.weights[k]
    return ACTIVATIONS[activation](z + params.bias)


def masked_max_pool(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Coordinate-wise max over mask-true rows; all-false gives the zero vector."""
    return y[mask].max(axis=0) if mask.any() else np.zeros(y.shape[1])


def dense_encode(x: np.ndarray, mask: np.ndarray, layers: list[ChebLayerParams]) -> np.ndarray:
    """Per-graph encoder: rectified cheb_conv stack, then masked_max_pool, for each frame of (..., n, f)."""
    out = np.zeros(mask.shape[:-1] + (layers[-1].bias.size,))
    for idx in np.ndindex(*mask.shape[:-1]):
        g = GraphOperator.from_adjacency(adjacency_from_mask(mask[idx]))
        h = x[idx]
        for layer in layers:
            h = cheb_conv(h, g, layer)
        out[idx] = masked_max_pool(h, mask[idx])
    return out


def lstm_cell_step(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, layer: LstmLayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """One standard LSTM cell update with per-gate matmuls; accepts vectors or batches."""
    z = np.concatenate([x, h], axis=-1)
    blocks = [slice(k * layer.hidden, (k + 1) * layer.hidden) for k in range(4)]
    i, f, g, o = (z @ layer.weights[:, s] + layer.bias[s] for s in blocks)
    i, f, o = (0.5 * (1.0 + np.tanh(0.5 * a)) for a in (i, f, o))
    c_new = f * c + i * np.tanh(g)
    return o * np.tanh(c_new), c_new


def cell_step_loop(seq: np.ndarray, layers: list[LstmLayerParams]) -> np.ndarray:
    """The top layer's last hidden state for (B, T, d) `seq`, one `lstm_cell_step` at a time."""
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


def reference_forward(features: np.ndarray, mask: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class probabilities (B, 4) for (B, T, N, 4) clips, composed from the oracles above."""
    cfg = params.config
    relu = ACTIVATIONS["relu"]
    parts = []
    for view, block in cfg.views():
        pooled = dense_encode(features[:, :, block], mask[:, :, block], params.graph[view])
        if cfg.temporal:
            parts.append(cell_step_loop(pooled, params.lstm[view]))
        else:
            parts.append(pooled.reshape(len(pooled), -1))
    mlp = params.classifier
    hidden = relu(relu(np.concatenate(parts, axis=1) @ mlp.w1 + mlp.b1) @ mlp.w2 + mlp.b2)
    logits = hidden @ mlp.w_out + mlp.b_out
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _pedals(action: Optional[Action], scenario: str, rng: np.random.Generator) -> tuple[float, float]:
    """(brake_kpa, accel_pct) realizing the action with margin to the thresholds."""
    if action is None:
        return 0.0, 0.0
    u = rng.uniform()
    if action is Action.FULL_BRAKING:
        return BRAKE_THRESHOLD_KPA[scenario] * (1.25 + 0.15 * u), 0.0
    if action is Action.SLIGHT_BRAKING:
        return BRAKE_THRESHOLD_KPA[scenario] * (0.45 + 0.15 * u), 0.0
    if action is Action.FULL_ACCELERATION:
        return 0.0, min(95.0, ACCEL_THRESHOLD_PCT[scenario] + 6.0 + 4.0 * u)
    return 0.0, max(2.0, ACCEL_THRESHOLD_PCT[scenario] - 9.0 + 4.0 * u)


def _project_car(distance: float, lateral_px: float) -> tuple[float, float, float, float]:
    """Pinhole-ish projection: nearer cars are larger and lower in frame."""
    h = min(450.0, 2600.0 / max(distance, 4.0))
    w = 1.5 * h
    y2 = min(IMAGE_H - 2.0, 350.0 + 1400.0 / max(distance, 4.0))
    y1 = max(1.0, y2 - h)
    cx = IMAGE_W / 2.0 + lateral_px
    x1 = max(1.0, cx - w / 2.0)
    x2 = min(IMAGE_W - 1.0, max(x1 + 4.0, cx + w / 2.0))
    return x1, y1, x2, y2


def _clamp(x: float, lo: float, hi: float) -> float:
    """`float(np.clip(x, lo, hi))` for Python floats, without a numpy call per value.

    Bit for bit the same. Where x is a zero that ties a zero bound of the other
    sign it returns x, as numpy 2.4 does; older numpy may return the bound.
    """
    return float(min(max(x, lo), hi))


def _jitter_box(
    box: tuple[float, float, float, float], jitter: float, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    if jitter <= 0:
        return box
    x1, y1, x2, y2 = (v + rng.uniform(-jitter, jitter) for v in box)
    x1 = _clamp(x1, 0.0, IMAGE_W - 2.0)
    y1 = _clamp(y1, 0.0, IMAGE_H - 2.0)
    x2 = _clamp(x2, x1 + 1.0, IMAGE_W)
    y2 = _clamp(y2, y1 + 1.0, IMAGE_H)
    return x1, y1, x2, y2


def reference_session(
    scenario: str, config: SynthConfig, seed: int
) -> tuple[list[FrameDetections], list[SensorSample], dict[int, Optional[Action]]]:
    """`speedcast.synth._generate_session` written frame by frame, one scalar RNG draw at a time."""
    rng = np.random.default_rng(seed)
    n = config.frames_per_session
    lo, hi = config.segment_frames

    # Segment plan: per-frame closing speed, cue flag, turn flag, transition marker.
    closing = np.zeros(n)
    distance = np.zeros(n)
    flag = np.zeros(n, dtype=bool)
    turning = np.zeros(n, dtype=bool)
    transition = np.zeros(n, dtype=bool)
    has_ped = np.zeros(n, dtype=bool)
    has_light = np.zeros(n, dtype=bool)

    pos = 0
    d = 30.0
    first_segment = True
    while pos < n:
        seg_len = int(rng.integers(lo, hi + 1))
        action = Action(int(rng.integers(0, 4)))
        c = rng.uniform(*CLOSING_RANGES[action])
        d = rng.uniform(*START_DISTANCES[action])
        seg_flag = config.confound and bool(rng.uniform() < config.flag_prob)
        seg_turn = bool(rng.uniform() < config.turn_segment_prob)
        seg_ped = bool(rng.uniform() < config.pedestrian_rate)
        seg_light = seg_flag if config.confound else (
            scenario == "urban" and bool(rng.uniform() < config.light_prob)
        )
        for t in range(pos, min(pos + seg_len, n)):
            closing[t] = c
            distance[t] = d
            flag[t] = seg_flag
            turning[t] = seg_turn
            has_ped[t] = seg_ped
            has_light[t] = seg_light
            d = max(4.0, d - c)
        transition[pos] = not first_segment
        first_segment = False
        pos += seg_len

    # Static background population.
    # Background traffic stays beyond the lead-gap bands so the lead vehicle
    # remains the dominant box under max pooling.
    n_bg = int(rng.integers(config.background_cars[0], config.background_cars[1] + 1))
    bg_dist = rng.uniform(55.0, 95.0, size=n_bg)
    bg_lateral = rng.uniform(250.0, 500.0, size=n_bg) * rng.choice([-1.0, 1.0], size=n_bg)
    bg_kind = rng.choice(["car", "bus", "truck"], size=n_bg, p=[0.7, 0.15, 0.15])
    ped_x0 = rng.uniform(100.0, 1100.0)
    ped_dir = float(rng.choice([-1.0, 1.0]))

    frames: list[FrameDetections] = []
    sensors: list[SensorSample] = []
    latents: dict[int, LatentState] = {}
    actions: dict[int, Optional[Action]] = {}
    for t in range(n):
        state = LatentState(
            distance=float(distance[t]),
            closing_speed=float(closing[t]),
            flag=bool(flag[t]),
            in_transition=bool(transition[t]),
        )
        latents[t] = state

        objects = [
            DetectedObject(
                category="car",
                bbox=_jitter_box(
                    _project_car(state.distance, rng.uniform(-10.0, 10.0)),
                    config.bbox_jitter_px,
                    rng,
                ),
                confidence=_clamp(0.97 + config.confidence_jitter * rng.uniform(-1, 1), 0.0, 1.0),
            )
        ]
        for b in range(n_bg):
            objects.append(
                DetectedObject(
                    category=str(bg_kind[b]),
                    bbox=_jitter_box(
                        _project_car(float(bg_dist[b]), float(bg_lateral[b])),
                        config.bbox_jitter_px,
                        rng,
                    ),
                    confidence=_clamp(
                        0.6 + 0.05 * b + config.confidence_jitter * rng.uniform(-1, 1), 0.0, 0.9
                    ),
                )
            )
        if has_ped[t]:
            px = _clamp(ped_x0 + ped_dir * 8.0 * t, 10.0, IMAGE_W - 60.0)
            objects.append(
                DetectedObject(
                    category="pedestrian",
                    bbox=_jitter_box((px, 380.0, px + 45.0, 520.0), config.bbox_jitter_px, rng),
                    confidence=0.85,
                )
            )
        if has_light[t]:
            objects.append(
                DetectedObject(
                    category="traffic_light" if scenario == "urban" else "stop_sign",
                    bbox=_jitter_box((900.0, 80.0, 945.0, 170.0), config.bbox_jitter_px, rng),
                    confidence=0.9,
                )
            )
        frames.append(
            FrameDetections(
                frame_index=t,
                timestamp=t / config.fps,
                image_width=IMAGE_W,
                image_height=IMAGE_H,
                objects=objects,
            )
        )

        # Pedal response lags the observed kinematics by reaction_delay frames.
        src = t - config.reaction_delay
        stopped = t < config.initial_stop_frames
        if stopped or src < 0:
            action = None
        else:
            action = oracle_label(latents[src], config.confound)
        actions[t] = action
        brake, accel = _pedals(action, scenario, rng)
        steer = 45.0 if turning[t] else float(rng.uniform(-8.0, 8.0))
        sensors.append(
            SensorSample(
                frame_index=t,
                brake_pressure=brake,
                accel_pedal=accel,
                steering_angle=steer,
                scenario=scenario,
                is_moving=not stopped,
            )
        )
    return frames, sensors, actions
