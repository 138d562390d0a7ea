"""Metrics with inference time, and ablation sweeps."""
from __future__ import annotations

import csv
import itertools
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfigError, SpeedcastError
from .ingest import ClipDataset, build_dataset
from .model import VARIANTS, ModelConfig, ModelParams, model_forward, normalize_variant
from .seeding import split_seed
from .train import COMPUTE_DTYPE, TrainConfig, TrainReport, train_variant, variant_config
from .types import NUM_ACTIONS, CategoryQuota, FrameDetections, SensorSample

RESULTS_HEADER = (
    "variant,T,FT,K,n_car,n_ped,n_traffic,seed,"
    "recall_fb,recall_sb,recall_sa,recall_fa,accuracy,infer_us_per_clip"
)


@dataclass
class MetricsReport:
    confusion: np.ndarray  # (4, 4) counts, rows = true class
    recalls: list[Optional[float]]  # percent; None when a class is absent
    accuracy: float  # percent
    per_clip_us: float = float("nan")  # set by `evaluate`: median predict pass time per clip


# `predict` keeps no backward cache, so one batch covers a default 527-538-clip
# test split. On 2 cores (numpy 2.4.6, OpenBLAS 0.3.31), 12 interleaved warm
# calls on 527 `full` clips took a median 72-74 ms at 128 and 57-60 ms at 1024;
# perfbench `train_full` read 12030 clips/s at 512 and 12290 at 1024 (4 runs
# each), and fresh-process passes were no slower at 1024 than at 512.
PREDICT_BATCH = 1024  # clips per forward pass of `predict`
INFERENCE_REPEATS = 3  # timed full-set `predict` passes per `evaluate`
# Clips whose float32 top-2 probability margin is below this are rescored in
# float64. On every split of the `pipeline --seed 0 --max-epochs 3` checkpoint,
# the float32 error per probability was at most 9.5e-8, ~500x below half of it.
RESCORE_MARGIN = 1e-4


def predict(params: ModelParams, features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Argmax class per clip in batches of PREDICT_BATCH, equal to the float64 argmax.

    Each batch runs in COMPUTE_DTYPE; clips whose top-2 probability margin is
    below RESCORE_MARGIN, or NaN, run again in float64 on `params`.
    """
    fast = params.clone(COMPUTE_DTYPE)
    preds = np.empty(features.shape[0], dtype=np.int64)
    for lo in range(0, features.shape[0], PREDICT_BATCH):
        hi = lo + PREDICT_BATCH
        probs, _, _ = model_forward(features[lo:hi].astype(COMPUTE_DTYPE), mask[lo:hi], fast, keep_cache=False)
        preds[lo:hi] = probs.argmax(axis=1)
        top = np.sort(probs, axis=1)
        near = lo + np.flatnonzero(~(top[:, -1] - top[:, -2] >= RESCORE_MARGIN))
        if near.size:
            preds[near] = model_forward(features[near], mask[near], params, keep_cache=False)[0].argmax(axis=1)
    return preds


def metrics_from_predictions(preds: np.ndarray, labels: np.ndarray) -> MetricsReport:
    if len(labels) == 0:
        raise InvalidConfigError("cannot evaluate on an empty set")
    confusion = np.zeros((NUM_ACTIONS, NUM_ACTIONS), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    counts = confusion.sum(axis=1)
    recalls: list[Optional[float]] = []
    for j in range(NUM_ACTIONS):
        if counts[j] == 0:
            warnings.warn(f"class {j} absent from evaluation set; recall undefined")
            recalls.append(None)
        else:
            recalls.append(100.0 * confusion[j, j] / counts[j])
    accuracy = 100.0 * np.trace(confusion) / counts.sum()
    return MetricsReport(confusion=confusion, recalls=recalls, accuracy=float(accuracy))


def evaluate(
    params: ModelParams, features: np.ndarray, mask: np.ndarray, labels: np.ndarray
) -> MetricsReport:
    """Confusion matrix, per-class recall and overall accuracy on a test set, with inference time.

    Runs INFERENCE_REPEATS timed full-set `predict` passes and scores their
    predictions; `per_clip_us` is the median pass time over the clip count.
    """
    if len(labels) == 0:
        raise InvalidConfigError("cannot evaluate on an empty set")
    times = []
    for _ in range(INFERENCE_REPEATS):
        started = time.perf_counter()
        preds = predict(params, features, mask)
        times.append(time.perf_counter() - started)
    metrics = metrics_from_predictions(preds, labels)
    metrics.per_clip_us = 1e6 * float(np.median(times)) / len(labels)
    return metrics


# ---------------------------------------------------------------------------
# Ablation sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    T_set: tuple[int, ...] = (10,)
    FT_set: tuple[int, ...] = (1,)
    K_set: tuple[int, ...] = (1,)
    variants: tuple[str, ...] = VARIANTS
    quotas: tuple[CategoryQuota, ...] = (CategoryQuota(),)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name in ("T_set", "FT_set", "K_set", "variants", "quotas", "seeds"):
            if not getattr(self, name):
                raise InvalidConfigError(f"sweep set {name} must be non-empty")
        self.variants = tuple(map(normalize_variant, self.variants))
        # ModelConfig declares the ranges; a value outside them fails the sweep, not each cell.
        for variant, t, ft, k, quota, _ in self.cells():
            ModelConfig(T=t, FT=ft, K=k, quota=quota, variant=variant)

    def cells(self):
        """(variant, T, FT, K, quota, seed) tuples, the last varying fastest."""
        return itertools.product(self.variants, self.T_set, self.FT_set, self.K_set, self.quotas, self.seeds)


@dataclass
class CellResult:
    variant: str
    T: int
    FT: int
    K: int
    quota: CategoryQuota
    seed: int
    metrics: Optional[MetricsReport] = None
    report: Optional[TrainReport] = None
    error: Optional[str] = None

    def csv_row(self) -> str:
        def rec(x: Optional[float]) -> str:
            return "" if x is None else f"{x:.2f}"

        m, q = self.metrics, self.quota
        cols = [""] * 6 if m is None else [*map(rec, m.recalls), f"{m.accuracy:.2f}", f"{m.per_clip_us:.1f}"]
        head = [self.variant, self.T, self.FT, self.K, q.n_car, q.n_pedestrian, q.n_traffic, self.seed]
        return ",".join([*map(str, head), *cols])


def run_ablation(
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]],
    sweep: SweepSpec,
    train_config: TrainConfig,
) -> list[CellResult]:
    """Train and evaluate every cell as `prepare`, `train` and `eval` at the cell's seed do.

    Clip datasets are built once per distinct (T, FT, quota, seed) and shared;
    `train_config.seed` is not read. A cell that fails with a SpeedcastError
    is recorded and the sweep continues; any other exception is a bug and propagates.
    """
    datasets: dict[tuple, ClipDataset] = {}
    results: list[CellResult] = []
    for variant, t, ft, k, quota, seed in sweep.cells():
        cell = CellResult(variant=variant, T=t, FT=ft, K=k, quota=quota, seed=seed)
        try:
            key = (t, ft, quota, seed)
            if key not in datasets:
                datasets[key] = build_dataset(sessions, T=t, FT=ft, quota=quota, seed=split_seed(seed))
            dataset = datasets[key]
            best, report = train_variant(dataset, variant_config(dataset, variant, k), seed, train_config)
            cell.metrics = evaluate(best, *dataset.subset(dataset.test_idx))
            cell.report = report
        except SpeedcastError as exc:
            cell.error = f"{type(exc).__name__}: {exc}"
        results.append(cell)
    return results


def write_results_table(results: Sequence[CellResult], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(RESULTS_HEADER + "\n")
        for cell in results:
            handle.write(cell.csv_row() + "\n")


def write_loss_curves(results: Sequence[CellResult], path: str | Path) -> None:
    """One row per epoch of each trained cell: its losses and seconds, floats at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["variant", "T", "FT", "K", "seed", "epoch", "train_loss", "val_loss", "seconds"])
        for cell in results:
            if cell.report is None:
                continue
            r = cell.report
            for epoch, row in enumerate(zip(r.train_losses, r.val_losses, r.epoch_seconds), start=1):
                writer.writerow([cell.variant, cell.T, cell.FT, cell.K, cell.seed, epoch, *row])
