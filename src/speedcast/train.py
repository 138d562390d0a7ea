"""Cross-entropy objective, exact gradients, Adam updates, and the training loop.

Training is mixed precision: each batch's forward and backward run in
float32 on a copy of the float64 master weights, and Adam applies the float32
gradients to the masters and keeps its moments in float64 (Micikevicius et
al., "Mixed Precision Training", ICLR 2018). Validation, the best snapshot,
checkpoints and the gradient check use the float64 weights.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfigError, NumericFaultError
from .ingest import ClipDataset
from .model import ModelConfig, ModelParams, init_params, model_backward, model_forward
from .seeding import derive_seed
from .types import check_field_types

COMPUTE_DTYPE = np.float32  # dtype of each training batch's forward and backward


def _mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean of -log softmax(logits)[label] over the batch, computed in the log domain."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def batch_loss(
    features: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    params: ModelParams,
    windows: Optional[np.ndarray] = None,
) -> float:
    """Mean cross-entropy of one batch, computed in the log domain.

    The batch is a frame table with `windows` or expanded clips, as in `model_forward`.
    """
    _, logits, _ = model_forward(features, mask, params, windows)
    return _mean_cross_entropy(logits, labels)


def loss_and_grads(
    features: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    params: ModelParams,
    want_input_grad: bool = False,
    windows: Optional[np.ndarray] = None,
) -> tuple[float, dict[str, np.ndarray], Optional[np.ndarray]]:
    """Mean batch loss, the gradient of every parameter tensor and, if wanted, of `features`.

    The batch is a frame table with `windows` or expanded clips, as in
    `model_forward`. A non-finite gradient or loss raises NumericFaultError
    naming the tensor, or "loss".
    """
    if len(labels) == 0:
        raise InvalidConfigError("empty batch")
    probs, logits, cache = model_forward(features, mask, params, windows)
    loss = _mean_cross_entropy(logits, labels)
    dlogits = probs.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads, dfeatures = model_backward(dlogits, cache, params, want_input_grad)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite gradient in {name}", tensor=name)
    if not np.isfinite(loss):
        raise NumericFaultError("non-finite loss", tensor="loss")
    return loss, grads, dfeatures


# ---------------------------------------------------------------------------
# Training hyperparameters and Adam
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    batch_size: int = field(default=512, metadata={"ge": 1})
    step_size: float = field(default=0.001, metadata={"gt": 0})
    beta1: float = field(default=0.9, metadata={"ge": 0, "lt": 1})
    beta2: float = field(default=0.999, metadata={"ge": 0, "lt": 1})
    epsilon: float = field(default=1e-8, metadata={"gt": 0})
    patience: int = field(default=50, metadata={"ge": 1})
    min_delta: float = field(default=1e-6, metadata={"ge": 0})
    max_epochs: int = field(default=200, metadata={"ge": 1})
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.named_arrays()},
            v={k: np.zeros_like(a) for k, a in params.named_arrays()},
        )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig = TrainConfig(),
) -> None:
    """Bias-corrected Adam update with `config`'s step size, betas and epsilon, in place.

    Gradients of a lower precision are cast up to the parameters' dtype first,
    so the moments and the update are computed at the parameters' precision.
    """
    state.t += 1
    t = state.t
    for name, arr in params.named_arrays():
        g = grads[name].astype(arr.dtype, copy=False)
        state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * g * g
        m_hat = state.m[name] / (1.0 - config.beta1**t)
        v_hat = state.v[name] / (1.0 - config.beta2**t)
        arr -= config.step_size * m_hat / (np.sqrt(v_hat) + config.epsilon)


# ---------------------------------------------------------------------------
# Early stopping and the training loop
# ---------------------------------------------------------------------------


class EarlyStopper:
    """Stop after `patience` epochs without an improvement larger than `min_delta`.

    "Best" means the last epoch that actually improved by more than min_delta,
    so sub-threshold drift never moves the snapshot.
    """

    def __init__(self, patience: int = 50, min_delta: float = 1e-6):
        if patience < 1:
            raise InvalidConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = np.inf
        self.best_epoch = -1
        self.stale = 0

    def update(self, val_loss: float, epoch: int) -> bool:
        """Record one epoch; returns True when this epoch becomes the new best."""
        if self.best_loss - val_loss > self.min_delta:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    stop_epoch: int = 0
    best_epoch: int = -1
    best_val_loss: float = np.inf
    fault: Optional[NumericFaultError] = None  # what aborted training, with its epoch, batch and tensor

    @property
    def aborted(self) -> bool:
        return self.fault is not None

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (e + 1, tr, vl, sec)
            for e, (tr, vl, sec) in enumerate(
                zip(self.train_losses, self.val_losses, self.epoch_seconds)
            )
        ]


def train(
    dataset: ClipDataset,
    params: ModelParams,
    config: TrainConfig,
    progress: Optional[Callable[[int, float, float], None]] = None,
) -> tuple[ModelParams, TrainReport]:
    """Mini-batch Adam training with early stopping and best-weight restore.

    Iterates the dataset's (already oversampled) train indices in a fresh
    seeded order each epoch; validates on the val split after every epoch.
    Each batch computes in COMPUTE_DTYPE on a copy of `params`, which stay
    float64 and are updated in place; validation uses `params` themselves.
    Batches and the val split reach the model as the distinct frames they hold
    plus windows into them, so each shared frame is encoded once per batch.
    A NumericFaultError stops training; the report keeps it, with the epoch
    and the batch (from 0 within the epoch) it arose in.
    """
    if len(dataset.train_idx) == 0 or len(dataset.val_idx) == 0:
        raise InvalidConfigError("train and val splits must be non-empty")
    state = AdamState.for_params(params)
    stopper = EarlyStopper(config.patience, config.min_delta)
    report = TrainReport()
    best_snapshot = params.clone()
    rng = np.random.default_rng(config.seed)
    frames = dataset.frames.astype(COMPUTE_DTYPE)
    val_rows, val_windows = _frame_batch(dataset.windows, dataset.val_idx)
    val_feats, val_mask = dataset.frames[val_rows], dataset.frame_mask[val_rows]
    val_labels = dataset.labels[dataset.val_idx]
    train_idx = dataset.train_idx
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        n_batches = 0
        try:
            for lo in range(0, len(order), config.batch_size):
                batch = train_idx[order[lo : lo + config.batch_size]]
                rows, windows = _frame_batch(dataset.windows, batch)
                compute = params.clone(COMPUTE_DTYPE)
                loss, grads, _ = loss_and_grads(
                    frames[rows], dataset.frame_mask[rows], dataset.labels[batch], compute, windows=windows
                )
                adam_step(params, grads, state, config)
                epoch_loss += loss
                n_batches += 1
            val_loss = batch_loss(val_feats, val_mask, val_labels, params, val_windows)
        except NumericFaultError as fault:
            fault.epoch, fault.batch = epoch, n_batches
            report.fault = fault.with_traceback(None)  # its frames hold the batch's arrays
            report.stop_epoch = epoch
            break
        report.train_losses.append(epoch_loss / max(n_batches, 1))
        report.val_losses.append(val_loss)
        report.epoch_seconds.append(time.perf_counter() - started)
        if stopper.update(val_loss, epoch):
            best_snapshot = params.clone()
        if progress is not None:
            progress(epoch, report.train_losses[-1], val_loss)
        report.stop_epoch = epoch
        if stopper.should_stop:
            break
    report.best_epoch = stopper.best_epoch
    report.best_val_loss = float(stopper.best_loss)
    return best_snapshot, report


def variant_config(dataset: ClipDataset, variant: str, K: int) -> ModelConfig:
    """The checked ModelConfig of `variant` at `K` for `dataset`'s clips."""
    return ModelConfig(T=dataset.T, FT=dataset.FT, K=K, quota=dataset.quota, variant=variant)


def train_variant(
    dataset: ClipDataset, model: ModelConfig, seed: int, config: TrainConfig, progress: Optional[Callable] = None
) -> tuple[ModelParams, TrainReport]:
    """Initialise `model` from run seed `seed` and `train` it on `dataset` with `config`."""
    return train(dataset, init_params(model, seed=derive_seed(seed, "init", model.variant)), config, progress)


def _frame_batch(windows: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, batch windows): the frame-table rows the clips `idx` read, each once and
    in order, and each clip's steps as (len(idx), T) indices into those rows."""
    # A flat argument: numpy 2.0 shapes the inverse of an n-d array like it, 1.x and 2.1+ do not.
    rows, inverse = np.unique(windows[idx].ravel(), return_inverse=True)
    return rows, inverse.reshape(len(idx), windows.shape[1])


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


def gradient_check(
    features: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    params: ModelParams,
    step: float = 1e-5,
    abs_floor: float = 1e-8,
    normwise: Optional[dict[str, float]] = None,
    windows: Optional[np.ndarray] = None,
) -> dict[str, float]:
    """Compare every gradient coordinate against central finite differences.

    The batch is a frame table with `windows` or expanded clips, as in `model_forward`.

    Returns per-tensor worst relative error. Coordinates whose absolute
    discrepancy is below `abs_floor` count as exact: there the difference is
    dominated by float64 roundoff of the loss evaluations, not by the gradient.
    A non-finite finite difference or gradient coordinate makes its tensor's error inf.
    If `normwise` is given, it receives each tensor's norm-wise error
    ||fd - g|| / max(||fd||, ||g||), which has no floor and so shows the margin.
    """
    _, grads, _ = loss_and_grads(features, mask, labels, params, windows=windows)
    worst: dict[str, float] = {}
    for name, arr in params.named_arrays():
        g = grads[name]
        err = 0.0
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        fds = np.empty_like(gflat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = batch_loss(features, mask, labels, params, windows)
            flat[idx] = orig - step
            down = batch_loss(features, mask, labels, params, windows)
            flat[idx] = orig
            fd = fds[idx] = (up - down) / (2.0 * step)
            diff = abs(fd - gflat[idx])
            if not diff <= abs_floor:  # a NaN difference too
                err = max(err, diff / max(abs(fd), abs(gflat[idx]))) if np.isfinite(diff) else np.inf
        worst[name] = err
        if normwise is not None:
            scale = max(np.linalg.norm(fds), np.linalg.norm(gflat))
            normwise[name] = float(np.linalg.norm(fds - gflat) / scale) if scale > 0 else 0.0
    return worst
