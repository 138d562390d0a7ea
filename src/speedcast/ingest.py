"""Turn detection and sensor logs into labeled, split, class-balanced clip datasets.

The pipeline is: downsample -> derive labels from pedal sensors -> select
top-confidence objects per view -> assemble fixed-size clips -> seeded split
-> oversample the training split to a uniform class histogram.
"""
from __future__ import annotations

import json
import math
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

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

CLIPSET_SCHEMA = "speedcast-clipset/2"
# Schema /1 stored every clip's T frames in its own rows of `features` and `mask`.
_CLIPSET_SCHEMA_V1 = "speedcast-clipset/1"
_CLIPSET_SHARED_KEYS = (
    "schema", "labels", "sessions", "anchors", "scenarios", "dims",
    "quota", "train_idx", "val_idx", "test_idx", "norm_mean", "norm_std",
)
_CLIPSET_KEYS = {
    CLIPSET_SCHEMA: ("frames", "frame_mask", "windows", *_CLIPSET_SHARED_KEYS),
    _CLIPSET_SCHEMA_V1: ("features", "mask", *_CLIPSET_SHARED_KEYS),
}


def read_archive(path: str | Path, kind: str) -> dict[str, np.ndarray]:
    """Every array of the `.npz` archive at `path`, by name.

    A file of any other format, or an array that numpy reads only by unpickling
    (an object array), raises InvalidRecordError naming it.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidRecordError(f"{path} is not a {kind} archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InvalidRecordError(f"{path} is not a {kind} archive: it holds a single array")
    arrays = {}
    with data:
        for key in data.files:
            try:
                arrays[key] = data[key]
            except ValueError as exc:
                raise InvalidRecordError(f"{kind} array {key} cannot be read: {exc}") from exc
    return arrays


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
    against the per-scenario threshold, inclusive on the full side. The sample
    is taken as valid: `read_sensor_log` validates every row it reads.
    """
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
    by image dimensions; empty slots stay zero with mask False. The frame is
    taken as valid: `read_detection_log` validates every frame it reads.
    """
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
    Returns the frame table `frames` (f, N, 4) and `frame_mask` (f, N), which
    holds each frame some clip uses once, in session order, and the per-clip
    arrays `windows` (m, T) (the row of the frame table for each history step),
    `labels`, `anchors` (frame index of position i) and `scenarios`, named like
    the ClipDataset fields they fill.
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
    row_of = np.cumsum(filled, dtype=np.int64) - 1  # frame table row of each filled position
    windows = np.asarray(positions, dtype=np.int64)[:, None] + np.arange(1 - T, 1)
    return {
        "frames": frame_feats[filled],
        "frame_mask": frame_mask[filled],
        "windows": row_of[windows],
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
    """Clips as windows over a table of prepared frames, plus split indices; the unit of archive IO.

    Consecutive clips of a session share T-1 frames, so each frame is stored
    once: history step t of clip i is row `windows[i, t]` of `frames` and
    `frame_mask`.
    """

    frames: np.ndarray  # (F, N, 4)
    frame_mask: np.ndarray  # (F, N) bool
    windows: np.ndarray  # (M, T) int64 rows of `frames`
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
        return self.windows.shape[0]

    @property
    def features(self) -> np.ndarray:
        """(M, T, N, 4) features of every clip, copied out of the frame table."""
        return self.frames[self.windows]

    @property
    def mask(self) -> np.ndarray:
        """(M, T, N) validity mask of every clip, copied out of the frame table."""
        return self.frame_mask[self.windows]

    def subset(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, mask, labels) of the clips at the given indices."""
        steps = self.windows[idx]
        return self.frames[steps], self.frame_mask[steps], self.labels[idx]

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            schema=np.array(CLIPSET_SCHEMA),
            frames=self.frames,
            frame_mask=self.frame_mask,
            windows=self.windows,
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
        `dims` and `quota`, the window, label and split-index ranges, and finite
        frames and norm statistics. A violation raises InvalidRecordError naming it.
        A schema /1 archive loads as a frame table that holds each clip's frames
        in their own rows.
        """
        data = read_archive(path, "clipset")
        schema = str(data["schema"]) if "schema" in data else None
        keys = _CLIPSET_KEYS.get(schema)
        if keys is None:
            raise InvalidRecordError(f"unexpected clipset schema {schema!r}")
        missing = sorted(set(keys) - set(data))
        extra = sorted(set(data) - set(keys))
        if missing or extra:
            raise InvalidRecordError(f"clipset arrays: missing {missing}, unexpected {extra}")
        arrays = {key: data[key] for key in keys if key != "schema"}
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
        quota = CategoryQuota(*(int(x) for x in quota))
        if schema == _CLIPSET_SCHEMA_V1:
            arrays.update(_frame_table_v1(arrays.pop("features"), arrays.pop("mask"), T, quota.total))
        ds = cls(T=T, FT=FT, quota=quota, **arrays)
        ds._validate()
        return ds

    def _validate(self) -> None:
        m = self.windows.shape[0] if self.windows.ndim == 2 else -1
        f = self.frames.shape[0] if self.frames.ndim == 3 else -1
        n = self.quota.total
        expected = {  # name: (shape, dtype kinds)
            "frames": ((f, n, 4), "f"),
            "frame_mask": ((f, n), "b"),
            "windows": ((m, self.T), "iu"),
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
        if self.windows.size and not 0 <= self.windows.min() <= self.windows.max() < f:
            raise InvalidRecordError(f"clipset windows hold frame indices outside [0, {f})")
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
        # the size of the frames.
        if self.frames.size and not np.isfinite([self.frames.min(), self.frames.max()]).all():
            raise InvalidRecordError("clipset frames hold a non-finite value")
        stats = np.concatenate([self.norm_mean, self.norm_std])
        if not (np.isfinite(stats).all() and (self.norm_std > 0).all()):
            raise InvalidRecordError("clipset norm statistics must be finite, with positive std")


def _frame_table_v1(features: np.ndarray, mask: np.ndarray, T: int, n: int) -> dict[str, np.ndarray]:
    """`frames`, `frame_mask` and `windows` for the per-clip arrays of a schema /1 archive."""
    m = features.shape[0] if features.ndim == 4 else -1
    for key, arr, shape in (("features", features, (m, T, n, 4)), ("mask", mask, (m, T, n))):
        if arr.shape != shape:
            raise InvalidRecordError(f"clipset {key}: stored {arr.dtype} {arr.shape}, expected {shape}")
    return {
        "frames": features.reshape(m * T, n, 4),
        "frame_mask": mask.reshape(m * T, n),
        "windows": np.arange(m * T, dtype=np.int64).reshape(m, T),
    }


def build_dataset(
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]],
    T: int,
    FT: int,
    quota: CategoryQuota,
    seed: int = 0,
) -> ClipDataset:
    """Assemble, split, oversample and standardize clips from per-session streams.

    Oversampling duplicates training indices only; val/test stay untouched.
    Every frame is shifted and scaled to zero mean, unit variance per channel,
    with statistics from the valid (mask True) entries of the training split's
    clips only, so val and test stay untouched by their own distributions. Raw
    box coordinates cluster tightly; without this step the optimizer has to
    resolve class differences that are a small ripple on a large shared offset.
    Padded slots stay exactly zero.
    """
    names = sorted(sessions)
    parts = [assemble_clips(*sessions[name], T, FT, quota) for name in names]
    shaped = parts or [assemble_clips([], [], T, FT, quota)]  # column shapes when no session exists
    columns = {
        key: np.concatenate([part[key] for part in shaped])
        for key in ("frames", "frame_mask", "labels", "anchors", "scenarios")
    }
    offsets = np.cumsum([0] + [len(part["frames"]) for part in shaped[:-1]])
    windows = np.concatenate([part["windows"] + offset for part, offset in zip(shaped, offsets)])
    # Wide enough for every name, never narrower than the historical U64.
    width = max([64, *map(len, names)])
    session_col = np.array(
        [name for name, part in zip(names, parts) for _ in part["labels"]], dtype=f"U{width}"
    )
    ds = ClipDataset(windows=windows, sessions=session_col, T=T, FT=FT, quota=quota, **columns)
    train, val, test = (
        np.asarray(part, dtype=np.int64)
        for part in split_dataset(list(range(len(ds))), seed=seed)
    )
    ds.train_idx = train[oversample(ds.labels[train], seed + 1)]
    ds.val_idx = val
    ds.test_idx = test
    if len(ds.train_idx):
        # The training clips' valid slots in the order of `features[rows][mask[rows]]`,
        # so the statistics keep their bits. Gathering only the valid slots would
        # skip the (rows, T, N, 4) temporary `frames[steps]`, but freeing it raises
        # glibc's dynamic mmap threshold; without that, each `base` K=5 training
        # batch in the same process maps its 8-16 MB temporaries afresh and
        # page-faults on them (epochs 35% slower).
        steps = windows[np.unique(ds.train_idx)]
        valid = ds.frames[steps][ds.frame_mask[steps]]
        if valid.size == 0:
            raise InvalidConfigError("training split has no valid detections")
        mean = valid.mean(axis=0)
        std = valid.std(axis=0)
        ds.norm_mean = mean
        ds.norm_std = np.where(std < 1e-8, 1.0, std)
        ds.frames = np.where(ds.frame_mask[..., None], (ds.frames - mean) / ds.norm_std, 0.0)
    return ds


# ---------------------------------------------------------------------------
# Log file IO (newline-delimited JSON)
# ---------------------------------------------------------------------------


_Record = TypeVar("_Record", FrameDetections, SensorSample)
_NUMBER_TYPES = frozenset((int, float))  # JSON numbers; bool, a subclass of int, is not one


def _integer(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:
        raise InvalidRecordError(f"{key} must be an integer, got {value!r}")
    return value


def _number(rec: dict, key: str) -> float:
    value = rec[key]
    if type(value) not in _NUMBER_TYPES or not math.isfinite(value):
        raise InvalidRecordError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _parse_object(o: dict) -> DetectedObject:
    # Only the types are checked here: `DetectedObject.validate` bounds every
    # value by the image or by [0, 1], which also rejects NaN and infinities.
    values = (o["x1"], o["y1"], o["x2"], o["y2"], o["confidence"])
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise InvalidRecordError(f"box and confidence must be numbers, got {values!r}")
    return DetectedObject(category=o["category"], bbox=values[:4], confidence=values[4])


def _read_jsonl(
    path: str | Path, kind: str, parse: Callable[[dict], _Record]
) -> dict[str, list[_Record]]:
    """Parse every non-blank line with `parse` into per-session lists ordered by frame index.

    A line that is not a JSON object with a string `session`, a record that
    `parse` rejects, or a second record for the same session and frame index
    raises InvalidRecordError naming `path:line`.
    """
    sessions: dict[str, list[_Record]] = {}
    first_line: dict[tuple[str, int], int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or not isinstance(rec.get("session"), str):
                    raise InvalidRecordError("not a JSON object with a string session")
                record = parse(rec)
            except (InvalidRecordError, KeyError, ValueError, TypeError, OverflowError) as exc:
                raise InvalidRecordError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
            session = rec["session"]
            first = first_line.setdefault((session, record.frame_index), lineno)
            if first != lineno:
                raise InvalidRecordError(
                    f"{path}:{lineno}: repeated {kind} record: session {session!r} frame "
                    f"{record.frame_index} is already at line {first}"
                )
            sessions.setdefault(session, []).append(record)
    for records in sessions.values():
        records.sort(key=lambda r: r.frame_index)
    return sessions


def _parse_frame(rec: dict) -> FrameDetections:
    if not isinstance(rec["objects"], list):
        raise InvalidRecordError(f"objects must be a list, got {rec['objects']!r}")
    frame = FrameDetections(
        frame_index=_integer(rec, "frame_index"),
        timestamp=_number(rec, "timestamp"),
        image_width=_integer(rec, "width"),
        image_height=_integer(rec, "height"),
        objects=[_parse_object(o) for o in rec["objects"]],
    )
    frame.validate()
    return frame


def _parse_sensor(rec: dict) -> SensorSample:
    is_moving = rec.get("is_moving")
    if is_moving is not None and type(is_moving) is not bool:
        raise InvalidRecordError(f"is_moving must be true, false or null, got {is_moving!r}")
    sample = SensorSample(
        frame_index=_integer(rec, "frame_index"),
        brake_pressure=_number(rec, "brake_kpa"),
        accel_pedal=_number(rec, "accel_pct"),
        steering_angle=_number(rec, "steer_deg"),
        scenario=rec["scenario"],
        is_moving=is_moving,
    )
    sample.validate()
    return sample


def read_detection_log(path: str | Path) -> dict[str, list[FrameDetections]]:
    """Parse and validate a detection log into per-session frame lists, ordered by frame index."""
    return _read_jsonl(path, "detection", _parse_frame)


def read_sensor_log(path: str | Path) -> dict[str, list[SensorSample]]:
    """Parse and validate a sensor log into per-session sample lists, ordered by frame index."""
    return _read_jsonl(path, "sensor", _parse_sensor)


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
