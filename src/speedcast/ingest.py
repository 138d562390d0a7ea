"""Turn detection and sensor logs into labeled, split, class-balanced clip datasets.

The pipeline is: downsample -> derive labels from pedal sensors -> select
top-confidence objects per view -> assemble fixed-size clips -> seeded split
-> oversample the training split to a uniform class histogram.
"""
from __future__ import annotations

import json
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DataAlignmentError, InvalidConfigError, InvalidRecordError
from .types import (
    ACTION_NAMES,
    NUM_ACTIONS,
    Action,
    CategoryQuota,
    DetectedObject,
    FrameDetections,
    SensorSample,
    super_category,
)

MAX_STEERING_DEG = 30.0

# Braking-pressure (kPa) and accelerator-percent thresholds separating the
# "full" from the "slight" level, per scenario.
BRAKE_THRESHOLD_KPA = {"highway": 958.0, "urban": 1461.0}
ACCEL_THRESHOLD_PCT = {"highway": 22.0, "urban": 19.0}

CLIPSET_SCHEMA = "speedcast-clipset/1"
_CLIPSET_KEYS = (
    "schema", "features", "mask", "labels", "sessions", "anchors", "scenarios", "dims",
    "quota", "train_idx", "val_idx", "test_idx", "norm_mean", "norm_std",
)


@contextmanager
def open_archive(path: str | Path, kind: str) -> Iterator[np.lib.npyio.NpzFile]:
    """The `.npz` archive at `path`; a file of any other format raises InvalidRecordError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidRecordError(f"{path} is not a {kind} archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InvalidRecordError(f"{path} is not a {kind} archive: it holds a single array")
    with data:
        yield data


def downsample(
    frames: Sequence[FrameDetections], source_fps: float, target_fps: float
) -> list[FrameDetections]:
    """Keep every round(source/target)-th frame, starting from the first."""
    if target_fps <= 0:
        raise InvalidConfigError(f"target_fps must be positive, got {target_fps}")
    if source_fps <= 0:
        raise InvalidConfigError(f"source_fps must be positive, got {source_fps}")
    if target_fps > source_fps:
        raise InvalidConfigError(
            f"target_fps {target_fps} exceeds source_fps {source_fps}"
        )
    stride = max(1, round(source_fps / target_fps))
    return list(frames[::stride])


def derive_label(sensor: SensorSample) -> Optional[Action]:
    """Map pedal readings to an Action; None means coasting (sample excluded).

    Brake dominates when both pedals are active. "Full" vs "slight" is decided
    against the per-scenario threshold, inclusive on the full side.
    """
    sensor.validate()
    if sensor.brake_pressure > 0:
        threshold = BRAKE_THRESHOLD_KPA[sensor.scenario]
        return Action.FULL_BRAKING if sensor.brake_pressure >= threshold else Action.SLIGHT_BRAKING
    if sensor.accel_pedal > 0:
        threshold = ACCEL_THRESHOLD_PCT[sensor.scenario]
        return (
            Action.FULL_ACCELERATION
            if sensor.accel_pedal >= threshold
            else Action.SLIGHT_ACCELERATION
        )
    return None


def clip_eligible(
    window: Sequence[FrameDetections], sensors_by_frame: dict[int, SensorSample]
) -> bool:
    """True iff every covered frame is turn-free and the window starts moving.

    "Moving" uses the record's explicit is_moving flag when present, else the
    heuristic that at least one pedal is active at the first frame.
    """
    if not window:
        return False
    for frame in window:
        sensor = sensors_by_frame.get(frame.frame_index)
        if sensor is None:
            raise DataAlignmentError(f"no sensor row for frame {frame.frame_index}")
        if abs(sensor.steering_angle) > MAX_STEERING_DEG:
            return False
    first = sensors_by_frame[window[0].frame_index]
    if first.is_moving is not None:
        return bool(first.is_moving)
    return first.brake_pressure > 0 or first.accel_pedal > 0


def select_top_n(
    frame: FrameDetections, quota: CategoryQuota
) -> tuple[np.ndarray, np.ndarray]:
    """Build the N x 4 feature block and validity mask for one frame.

    Per view, detections are sorted confidence-descending (original index
    breaks ties) and kept up to that view's quota. Coordinates are normalized
    by image dimensions; empty slots stay zero with mask False.
    """
    frame.validate()
    n = quota.total
    features = np.zeros((n, 4), dtype=np.float64)
    mask = np.zeros(n, dtype=bool)
    by_view: dict[str, list[tuple[float, int, DetectedObject]]] = {
        "car": [],
        "pedestrian": [],
        "traffic": [],
    }
    for idx, obj in enumerate(frame.objects):
        by_view[super_category(obj.category)].append((-obj.confidence, idx, obj))
    w = float(frame.image_width)
    h = float(frame.image_height)
    for view, block in quota.slices().items():
        chosen = sorted(by_view[view])[: block.stop - block.start]
        for row, (_, _, obj) in enumerate(chosen, start=block.start):
            x1, y1, x2, y2 = obj.bbox
            features[row] = (x1 / w, y1 / h, x2 / w, y2 / h)
            mask[row] = True
    return features, mask


def assemble_clips(
    frames: Sequence[FrameDetections],
    sensors: Sequence[SensorSample],
    T: int,
    FT: int,
    quota: CategoryQuota,
) -> dict[str, np.ndarray]:
    """Stack one clip per valid anchor of an already-downsampled session.

    An anchor at position i needs T history frames, an eligible (turn-free,
    moving) history window, and a non-coast label at position i + FT.
    Returns the per-clip arrays `features` (m, T, N, 4), `mask` (m, T, N),
    `labels`, `anchors` (frame index of position i) and `scenarios`, named
    like the ClipDataset fields they fill.
    """
    if T < 1:
        raise InvalidConfigError(f"history length T must be >= 1, got {T}")
    if FT < 1:
        raise InvalidConfigError(f"future offset FT must be >= 1, got {FT}")
    sensors_by_frame = {s.frame_index: s for s in sensors}
    positions: list[int] = []
    labels: list[int] = []
    scenarios: list[str] = []
    frame_feats = np.zeros((len(frames), quota.total, 4), dtype=np.float64)
    frame_mask = np.zeros((len(frames), quota.total), dtype=bool)
    filled = np.zeros(len(frames), dtype=bool)
    for i in range(T - 1, len(frames) - FT):
        target_frame = frames[i + FT].frame_index
        target_sensor = sensors_by_frame.get(target_frame)
        if target_sensor is None:
            raise DataAlignmentError(f"no sensor row for frame {target_frame}")
        label = derive_label(target_sensor)
        if label is None:
            continue
        if not clip_eligible(frames[i - T + 1 : i + 1], sensors_by_frame):
            continue
        for pos in range(i - T + 1, i + 1):
            if not filled[pos]:
                frame_feats[pos], frame_mask[pos] = select_top_n(frames[pos], quota)
                filled[pos] = True
        positions.append(i)
        labels.append(int(label))
        scenarios.append(target_sensor.scenario)
    windows = np.asarray(positions, dtype=np.int64)[:, None] + np.arange(1 - T, 1)
    return {
        "features": frame_feats[windows],
        "mask": frame_mask[windows],
        "labels": np.asarray(labels, dtype=np.int64),
        "anchors": np.asarray([frames[i].frame_index for i in positions], dtype=np.int64),
        "scenarios": np.asarray(scenarios, dtype="U16"),
    }


def split_dataset(
    items: Sequence,
    ratios: tuple[float, float, float] = (0.70, 0.10, 0.20),
    seed: int = 0,
) -> tuple[list, list, list]:
    """Seeded shuffle then contiguous train/val/test partition.

    Val and test sizes are floors of their ratios; the remainder goes to
    train (this reproduces 58721 -> 41105/5872/11744).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidConfigError(f"split ratios must sum to 1, got {ratios}")
    n = len(items)
    if n == 0:
        return [], [], []
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    n_train = n - n_val - n_test
    shuffled = [items[int(i)] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


def oversample(labels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Row indices that balance `labels` to a uniform class histogram.

    The original rows come first, in order; then, class by class, minority
    rows drawn with replacement up to the majority count.
    """
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    target = np.bincount(labels, minlength=NUM_ACTIONS).max()
    picks = [np.arange(len(labels))]
    for action in range(NUM_ACTIONS):
        pool = np.flatnonzero(labels == action)
        if not len(pool):
            if target > 0:
                warnings.warn(
                    f"class {ACTION_NAMES[action]} has no training samples; left at zero"
                )
            continue
        deficit = target - len(pool)
        if deficit > 0:
            picks.append(pool[rng.integers(0, len(pool), size=deficit)])
    return np.concatenate(picks)


# ---------------------------------------------------------------------------
# Array-backed dataset and archive round-trip
# ---------------------------------------------------------------------------


@dataclass
class ClipDataset:
    """Stacked clip tensors plus split indices; the unit of archive IO."""

    features: np.ndarray  # (M, T, N, 4)
    mask: np.ndarray  # (M, T, N) bool
    labels: np.ndarray  # (M,) int64
    sessions: np.ndarray  # (M,) unicode
    anchors: np.ndarray  # (M,) int64
    scenarios: np.ndarray  # (M,) unicode
    T: int
    FT: int
    quota: CategoryQuota
    train_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    val_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    test_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    norm_mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    norm_std: np.ndarray = field(default_factory=lambda: np.ones(4))

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, mask, labels) views for the given indices."""
        return self.features[idx], self.mask[idx], self.labels[idx]

    def standardize_from_train(self) -> None:
        """Shift and scale all features to zero mean, unit variance per channel.

        Statistics come from the valid (mask True) entries of the training
        split only, so val and test stay untouched by their own distributions.
        Raw box coordinates cluster tightly; without this step the optimizer
        has to resolve class differences that are a small ripple on a large
        shared offset. Padded slots stay exactly zero.
        """
        if len(self.train_idx) == 0:
            raise InvalidConfigError("cannot standardize without a training split")
        rows = np.unique(self.train_idx)
        valid = self.features[rows][self.mask[rows]]
        if valid.size == 0:
            raise InvalidConfigError("training split has no valid detections")
        mean = valid.mean(axis=0)
        std = valid.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        self.norm_mean = mean
        self.norm_std = std
        self.features = np.where(
            self.mask[..., None], (self.features - mean) / std, 0.0
        )

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            schema=np.array(CLIPSET_SCHEMA),
            features=self.features,
            mask=self.mask,
            labels=self.labels,
            sessions=self.sessions,
            anchors=self.anchors,
            scenarios=self.scenarios,
            dims=np.array([self.T, self.FT], dtype=np.int64),
            quota=np.array(
                [self.quota.n_car, self.quota.n_pedestrian, self.quota.n_traffic],
                dtype=np.int64,
            ),
            train_idx=self.train_idx,
            val_idx=self.val_idx,
            test_idx=self.test_idx,
            norm_mean=self.norm_mean,
            norm_std=self.norm_std,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClipDataset":
        """Read an archive `save` wrote, validated: the keys, the shapes against
        `dims` and `quota`, the label and split-index ranges, and finite features
        and norm statistics. A violation raises InvalidRecordError naming it.
        """
        with open_archive(path, "clipset") as data:
            missing = sorted(set(_CLIPSET_KEYS) - set(data.files))
            extra = sorted(set(data.files) - set(_CLIPSET_KEYS))
            if missing or extra:
                raise InvalidRecordError(f"clipset arrays: missing {missing}, unexpected {extra}")
            schema = str(data["schema"])
            if schema != CLIPSET_SCHEMA:
                raise InvalidRecordError(f"unexpected clipset schema {schema!r}")
            arrays = {key: data[key] for key in _CLIPSET_KEYS if key != "schema"}
        dims, quota = arrays.pop("dims"), arrays.pop("quota")
        kinds = {dims.dtype.kind, quota.dtype.kind}
        if dims.shape != (2,) or quota.shape != (3,) or not kinds <= {"i", "u"}:
            raise InvalidRecordError(
                f"clipset dims {dims.dtype} {dims.shape} and quota {quota.dtype} {quota.shape} "
                "must be 2 and 3 integers"
            )
        T, FT = (int(x) for x in dims)
        if T < 1 or FT < 1:
            raise InvalidRecordError(f"clipset dims T={T} FT={FT} must be positive")
        ds = cls(T=T, FT=FT, quota=CategoryQuota(*(int(x) for x in quota)), **arrays)
        ds._validate()
        return ds

    def _validate(self) -> None:
        m = self.features.shape[0] if self.features.ndim == 4 else -1
        n = self.quota.total
        expected = {  # name: (shape, dtype kinds)
            "features": ((m, self.T, n, 4), "f"),
            "mask": ((m, self.T, n), "b"),
            "labels": ((m,), "iu"),
            "sessions": ((m,), "U"),
            "anchors": ((m,), "iu"),
            "scenarios": ((m,), "U"),
            "norm_mean": ((4,), "f"),
            "norm_std": ((4,), "f"),
        }
        for key, (shape, kinds) in expected.items():
            arr = getattr(self, key)
            if arr.shape != shape or arr.dtype.kind not in kinds:
                raise InvalidRecordError(
                    f"clipset {key}: stored {arr.dtype} {arr.shape}, expected {shape}"
                )
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < NUM_ACTIONS:
            raise InvalidRecordError(f"clipset labels outside [0, {NUM_ACTIONS})")
        for key in ("train_idx", "val_idx", "test_idx"):
            idx = getattr(self, key)
            if idx.ndim != 1 or idx.dtype.kind not in "iu":
                raise InvalidRecordError(
                    f"clipset {key}: stored {idx.dtype} {idx.shape}, expected 1-D integers"
                )
            if idx.size and not 0 <= idx.min() <= idx.max() < m:
                raise InvalidRecordError(f"clipset {key} holds indices outside [0, {m})")
        # min and max propagate NaN and reach any infinity, with no temporary
        # the size of the features.
        if self.features.size and not np.isfinite([self.features.min(), self.features.max()]).all():
            raise InvalidRecordError("clipset features hold a non-finite value")
        stats = np.concatenate([self.norm_mean, self.norm_std])
        if not (np.isfinite(stats).all() and (self.norm_std > 0).all()):
            raise InvalidRecordError("clipset norm statistics must be finite, with positive std")


def build_dataset(
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]],
    T: int,
    FT: int,
    quota: CategoryQuota,
    seed: int = 0,
) -> ClipDataset:
    """Assemble, split, oversample and standardize clips from per-session streams.

    Oversampling duplicates training indices only; val/test stay untouched.
    Standardization uses training-split statistics across the whole dataset.
    """
    names = sorted(sessions)
    parts = [assemble_clips(*sessions[name], T, FT, quota) for name in names]
    shaped = parts or [assemble_clips([], [], T, FT, quota)]  # column shapes when no session exists
    columns = {
        key: np.concatenate([part[key] for part in shaped])
        for key in ("features", "mask", "labels", "anchors", "scenarios")
    }
    # Wide enough for every name, never narrower than the historical U64.
    width = max([64, *map(len, names)])
    session_col = np.array(
        [name for name, part in zip(names, parts) for _ in part["labels"]], dtype=f"U{width}"
    )
    ds = ClipDataset(sessions=session_col, T=T, FT=FT, quota=quota, **columns)
    train, val, test = (
        np.asarray(part, dtype=np.int64)
        for part in split_dataset(list(range(len(ds))), seed=seed)
    )
    ds.train_idx = train[oversample(ds.labels[train], seed + 1)]
    ds.val_idx = val
    ds.test_idx = test
    if len(ds.train_idx):
        ds.standardize_from_train()
    return ds


# ---------------------------------------------------------------------------
# Log file IO (newline-delimited JSON)
# ---------------------------------------------------------------------------


def read_detection_log(path: str | Path) -> dict[str, list[FrameDetections]]:
    """Parse a detection log into per-session frame lists, ordered by frame index."""
    sessions: dict[str, list[FrameDetections]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                frame = FrameDetections(
                    frame_index=int(rec["frame_index"]),
                    timestamp=float(rec["timestamp"]),
                    image_width=int(rec["width"]),
                    image_height=int(rec["height"]),
                    objects=[
                        DetectedObject(
                            category=o["category"],
                            bbox=(float(o["x1"]), float(o["y1"]), float(o["x2"]), float(o["y2"])),
                            confidence=float(o["confidence"]),
                        )
                        for o in rec["objects"]
                    ],
                )
                session = str(rec["session"])
            except (KeyError, ValueError, TypeError) as exc:
                raise InvalidRecordError(f"{path}:{lineno}: malformed detection record: {exc}")
            sessions.setdefault(session, []).append(frame)
    for frames in sessions.values():
        frames.sort(key=lambda f: f.frame_index)
    return sessions


def read_sensor_log(path: str | Path) -> dict[str, list[SensorSample]]:
    """Parse a sensor log into per-session sample lists, ordered by frame index."""
    sessions: dict[str, list[SensorSample]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                sample = SensorSample(
                    frame_index=int(rec["frame_index"]),
                    brake_pressure=float(rec["brake_kpa"]),
                    accel_pedal=float(rec["accel_pct"]),
                    steering_angle=float(rec["steer_deg"]),
                    scenario=str(rec["scenario"]),
                    is_moving=rec.get("is_moving"),
                )
                session = str(rec["session"])
            except (KeyError, ValueError, TypeError) as exc:
                raise InvalidRecordError(f"{path}:{lineno}: malformed sensor record: {exc}")
            sessions.setdefault(session, []).append(sample)
    for samples in sessions.values():
        samples.sort(key=lambda s: s.frame_index)
    return sessions


def load_sessions(
    logs_dir: str | Path, source_fps: float = 3.0, target_fps: float = 3.0
) -> dict[str, tuple[list[FrameDetections], list[SensorSample]]]:
    """Read `detections.jsonl` and `sensors.jsonl` from one directory, paired by session.

    Each session's frames are downsampled from source_fps to target_fps and
    only the sensor rows of the kept frames remain. A session with detections
    but no sensor rows is a DataAlignmentError.
    """
    logs_dir = Path(logs_dir)
    detections = read_detection_log(logs_dir / "detections.jsonl")
    sensor_log = read_sensor_log(logs_dir / "sensors.jsonl")
    sessions = {}
    for name, frames in detections.items():
        if name not in sensor_log:
            raise DataAlignmentError(f"session {name!r} has detections but no sensor rows")
        frames = downsample(frames, source_fps, target_fps)
        kept = {f.frame_index for f in frames}
        sessions[name] = (frames, [s for s in sensor_log[name] if s.frame_index in kept])
    return sessions
