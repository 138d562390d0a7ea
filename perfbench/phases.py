"""Set-up, timed passes and output checks of the speedcast benchmark.

Every library call goes through a module attribute (`synth.generate`, never a
local binding of it), so that the tracer's hooks see it.
"""
from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from speedcast import evaluation, ingest, model, synth, train
from speedcast.errors import NumericFaultError
from speedcast.types import CategoryQuota

# The paper setting: 10 history frames, action 1 frame ahead, quota 20/10/10.
T = 10
FT = 1
QUOTA = CategoryQuota(20, 10, 10)
BATCH = 512
PROB_TOL = 1e-12
PREDICT_CHUNK = 1024  # evaluation.predict's default batch size

# Independent random streams derived from the workload seed.
SPLIT, TRAIN_ORDER, STREAM_ORDER = range(3)
# The initial parameters belong to the model under test, not to its input, so
# they do not follow the workload seed: with a per-seed init the final loss of
# train_base_k5 spread 17% (quartile distance over median) across seeds, with
# this fixed one 4%.
INIT_SEED = 0


# Host speed. On a shared host the same work takes up to 1.5x longer in one
# minute than in the next (see README.md). The benchmark measures a fixed
# reference unit of Python and BLAS work around the timed work and rescales
# each time to a host on which that unit takes REF_NOMINAL_S.
REF_LOOP = 20_000
REF_MATRIX = np.random.default_rng(0).random((128, 128))
REF_PRODUCTS = 16
REF_REPS = 20
REF_NOMINAL_S = 2.2e-3


def reference_s() -> float:
    """The host's speed right now: median time of the reference unit.

    The unit is a pure-Python loop of REF_LOOP additions and REF_PRODUCTS
    products of a 128x128 matrix, a mix of interpreter and BLAS work like the
    program's. It takes about REF_NOMINAL_S on the host the bounds were set on.
    """
    times = []
    for _ in range(REF_REPS):
        started = time.perf_counter()
        x = 0
        for i in range(REF_LOOP):
            x += i * i
        for _ in range(REF_PRODUCTS):
            REF_MATRIX @ REF_MATRIX
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def normalized(seconds, reference):
    """`seconds` measured at reference time `reference`, rescaled to REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / reference


def sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Tally:
    """Counts checked operations and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed ({failed} of {attempted}): {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def labels_match_oracle(dataset: ingest.ClipDataset, result: synth.SynthResult) -> bool:
    """Every clip's label is the action the generator applied at anchor + FT."""
    return all(
        result.oracle(str(session), int(anchor) + dataset.FT) == int(label)
        for session, anchor, label in zip(dataset.sessions, dataset.anchors, dataset.labels)
    )


ARCHIVE_ARRAYS = (
    "features", "mask", "labels", "sessions", "anchors", "scenarios",
    "train_idx", "val_idx", "test_idx", "norm_mean", "norm_std",
)


def archives_identical(saved: ingest.ClipDataset, loaded: ingest.ClipDataset) -> bool:
    """Same dims, quota and every array bit for bit, dtype and shape included."""
    if (saved.T, saved.FT, saved.quota) != (loaded.T, loaded.FT, loaded.quota):
        return False
    for name in ARCHIVE_ARRAYS:
        a, b = np.asarray(getattr(saved, name)), np.asarray(getattr(loaded, name))
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def settle() -> None:
    """Collect garbage before a timed unit, so that no unit pays for another's garbage.

    The library allocates many small Python objects; without this, when the
    cyclic collector happens to run decides which unit it slows down.
    """
    gc.collect()


def prepare_pass(workdir: Path, sessions: int, seed: int, tally: Tally):
    """synth -> logs -> read -> build_dataset -> save -> load, then check the result.

    Returns ({"synth_s", "prepare_s"}, reloaded dataset, anchor positions examined).
    """
    settle()
    started = time.perf_counter()
    result = synth.generate(synth.SynthConfig(sessions=sessions, seed=seed))
    det_path, sen_path = synth.write_logs(result, workdir)
    synth_done = time.perf_counter()
    detections = ingest.read_detection_log(det_path)
    sensors = ingest.read_sensor_log(sen_path)
    streams = {name: (frames, sensors[name]) for name, frames in detections.items()}
    dataset = ingest.build_dataset(streams, T=T, FT=FT, quota=QUOTA, seed=sub_seed(seed, SPLIT))
    archive = workdir / "clips.npz"
    dataset.save(archive)
    loaded = ingest.ClipDataset.load(archive)
    done = time.perf_counter()
    tally.check(labels_match_oracle(loaded, result), "prepared labels differ from the synth oracle at anchor+FT")
    tally.check(archives_identical(dataset, loaded), "reloaded archive differs from the saved dataset")
    anchors = sum(max(0, len(frames) - FT - (T - 1)) for frames, _ in streams.values())
    return {"synth_s": synth_done - started, "prepare_s": done - synth_done}, loaded, anchors


@dataclass
class Setup:
    dataset: ingest.ClipDataset
    params: model.ModelParams
    anchors: int  # anchor positions assemble_clips examined
    stages: dict[str, float]
    seconds: float
    reference: float  # reference time around the set-up


def set_up(workdir: Path, sessions: int, variant: str, K: int, seed: int, tally: Tally) -> Setup:
    """Data generation and preparation, init_params and one warm-up step, timed as a whole."""
    before = reference_s()
    started = time.perf_counter()
    stages, dataset, anchors = prepare_pass(workdir, sessions, seed, tally)
    config = model.ModelConfig(T=T, FT=FT, K=K, quota=QUOTA, variant=variant)
    params = model.init_params(config, seed=INIT_SEED)
    warm_up(dataset, params, tally)
    seconds = time.perf_counter() - started
    return Setup(dataset, params, anchors, stages, seconds, (before + reference_s()) / 2)


def warm_up(dataset: ingest.ClipDataset, params: model.ModelParams, tally: Tally) -> None:
    """One training step on a copy of the parameters plus one single-clip forward."""
    trial = params.clone()
    feats, mask, labels = dataset.subset(dataset.train_idx[:BATCH])
    try:
        _, grads, _ = train.loss_and_grads(feats, mask, labels, trial)
    except NumericFaultError as exc:
        tally.check(False, f"warm-up step: {exc}")
    else:
        train.adam_step(trial, grads, train.AdamState.for_params(trial))
        tally.check(True, "warm-up step")
    test_feats, test_mask, _ = dataset.subset(dataset.test_idx[:1])
    model.model_forward(test_feats, test_mask, params)


# ---------------------------------------------------------------------------
# Timed passes. Each one does the same work every time it is called, so a
# traced pass can be compared with an untraced one.
# ---------------------------------------------------------------------------


def train_pass(
    dataset: ingest.ClipDataset,
    params: model.ModelParams,
    epochs: int,
    seed: int,
    tally: Tally,
    after_epoch: Optional[Callable[[], None]] = None,
) -> tuple[Optional[float], list[float]]:
    """A fixed number of epochs of `train.train` from the set-up parameters.

    Returns the mean training loss of the last epoch (None if no epoch
    finished) and the epoch seconds. Patience exceeds the epoch count, so
    early stopping never cuts a run short and the final loss repeats exactly
    for a given seed. `after_epoch` runs after every epoch, outside the
    epoch timer.
    """
    config = train.TrainConfig(
        batch_size=BATCH, max_epochs=epochs, patience=epochs + 1, seed=sub_seed(seed, TRAIN_ORDER)
    )

    def between_epochs(epoch: int, train_loss: float, val_loss: float) -> None:
        after_epoch()
        settle()

    settle()
    _, report = train.train(dataset, params.clone(), config, None if after_epoch is None else between_epochs)
    steps = math.ceil(len(dataset.train_idx) / BATCH)
    good_epochs = sum(1 for loss in report.train_losses if np.isfinite(loss))
    tally.count(epochs * steps, (epochs - good_epochs) * steps, "training loss or gradients not finite")
    return (report.train_losses[-1] if report.train_losses else None), report.epoch_seconds


class Inference:
    """One caller sending one test clip per `model_forward` (closed loop), and batched `predict`s.

    Samples accumulate over calls of `run`, so the work can be spread over a
    run. Each call's probabilities are checked against batched probabilities
    computed up front in predict's own chunks.
    """

    def __init__(self, dataset: ingest.ClipDataset, params: model.ModelParams, seed: int, tally: Tally) -> None:
        self.params = params
        self.tally = tally
        self.feats, self.mask, _ = dataset.subset(dataset.test_idx)
        self.reference = np.concatenate(
            [
                model.model_forward(self.feats[lo : lo + PREDICT_CHUNK], self.mask[lo : lo + PREDICT_CHUNK], params)[0]
                for lo in range(0, len(self.feats), PREDICT_CHUNK)
            ]
        )
        self.order = np.random.default_rng(sub_seed(seed, STREAM_ORDER)).permutation(len(self.feats))
        self.sent = 0
        self.latencies_ms: list[float] = []
        self.predict_s: list[float] = []

    def run(self, single_calls: int, predict_calls: int) -> None:
        settle()
        bad = 0
        for _ in range(single_calls):
            i = int(self.order[self.sent % len(self.order)])
            self.sent += 1
            started = time.perf_counter()
            probs, _, _ = model.model_forward(self.feats[i : i + 1], self.mask[i : i + 1], self.params)
            self.latencies_ms.append((time.perf_counter() - started) * 1e3)
            p = probs[0]
            bad += not (np.abs(p - self.reference[i]).max() <= PROB_TOL and abs(p.sum() - 1.0) <= PROB_TOL)
        self.tally.count(single_calls, bad, "single-clip probabilities differ from the batched ones or do not sum to 1")
        expected = self.reference.argmax(axis=1)
        for _ in range(predict_calls):
            started = time.perf_counter()
            preds = evaluation.predict(self.params, self.feats, self.mask)
            self.predict_s.append(time.perf_counter() - started)
            self.tally.check(np.array_equal(preds, expected), "predict disagrees with the batched probabilities")

    def metrics(self, latency_refs: np.ndarray, predict_refs: np.ndarray) -> dict:
        """Metrics from the samples so far, rescaled by the reference time given per sample (p90 excepted)."""
        out = {}
        if self.latencies_ms:
            # p90, not p99: over five seeds the p99 of 1200 calls spread by
            # 30% or more (quartile distance over median), the p90 by 5-9%.
            # The p90 is not rescaled: the slowest tenth of the calls falls in
            # the host's slow spells in every run, so it is steady as measured,
            # and rescaling it by the speed around each burst made it spread
            # by up to 23% over eight seeds, against 7% raw.
            latencies = np.array(self.latencies_ms)
            out["infer_ms_p50"] = float(np.percentile(normalized(latencies, latency_refs), 50))
            out["infer_ms_p90"] = float(np.percentile(latencies, 90))
        if self.predict_s:
            out["eval_clips_per_s"] = len(self.feats) / statistics.median(normalized(np.array(self.predict_s), predict_refs))
        return out


# ---------------------------------------------------------------------------
# Counts computed from the arrays, outside the program
# ---------------------------------------------------------------------------


def real_slot_fraction(dataset: ingest.ClipDataset, idx: np.ndarray) -> dict[str, float]:
    """Share of the graph slots the model processes that hold a real detection, per view."""
    mask = dataset.mask[idx]
    return {view: float(mask[..., block].mean()) for view, block in QUOTA.slices().items()}


def _owned_bytes(obj, seen: set) -> int:
    if isinstance(obj, np.ndarray):
        if obj.base is not None or id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_owned_bytes(item, seen) for item in obj)
    return 0


def forward_cache_mb(dataset: ingest.ClipDataset, params: model.ModelParams) -> float:
    """Megabytes the forward cache owns for one training batch (views of the input excluded)."""
    feats, mask, _ = dataset.subset(dataset.train_idx[:BATCH])
    _, _, cache = model.model_forward(feats, mask, params)
    return _owned_bytes(cache, set()) / 2**20
