"""Turn detection and sensor logs into labeled, split, class-balanced clip datasets.

The pipeline is: downsample -> derive labels from pedal sensors -> select
top-confidence objects per view -> assemble fixed-size clips -> seeded split
-> oversample the training split to a uniform class histogram.
"""
from __future__ import annotations

import json
import math
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import astuple, dataclass, field
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

SPLIT_RATIOS = (0.70, 0.10, 0.20)  # train / val / test shares of the clips

CLIPSET_SCHEMA = "speedcast-clipset/2"
# Schema /1 stored every clip's T frames in its own rows of `features` and `mask`.
_CLIPSET_SCHEMA_V1 = "speedcast-clipset/1"
_CLIPSET_SHARED_KEYS = (
    "labels", "sessions", "anchors", "scenarios", "dims",
    "quota", "train_idx", "val_idx", "test_idx", "norm_mean", "norm_std",
)
# Each schema's arrays in the order its `save` writes them; the order fixes the archive's bytes.
_CLIPSET_KEYS = {
    CLIPSET_SCHEMA: ("schema", "frames", "frame_mask", "windows", *_CLIPSET_SHARED_KEYS),
    _CLIPSET_SCHEMA_V1: ("schema", "features", "mask", *_CLIPSET_SHARED_KEYS),
}


# What numpy and zipfile raise on damaged `.npz` bytes: a broken zip structure, `.npy`
# header or compressed stream, a truncated member, or a zip feature they do not support.
_DAMAGED_ARCHIVE = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile, zlib.error, tokenize.TokenError)


def read_archive(path: str | Path, kind: str) -> dict[str, np.ndarray]:
    """Every array of the `.npz` archive at `path`, by name.

    A file that cannot be opened raises InvalidConfigError naming `path`. A file of any
    other format raises InvalidRecordError naming it, and a damaged array, or one numpy
    reads only by unpickling (an object array), InvalidRecordError naming the array.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise InvalidConfigError(f"cannot read {kind} archive {path}: {exc.strerror or exc}") from exc
    with handle:
        try:
            data = np.load(handle, allow_pickle=False)
        except _DAMAGED_ARCHIVE as exc:
            raise InvalidRecordError(f"{path} is not a {kind} archive: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise InvalidRecordError(f"{path} is not a {kind} archive: it holds a single array")
        arrays = {}
        with data:
            for key in data.files:
                try:
                    arrays[key] = data[key]
                except _DAMAGED_ARCHIVE as exc:
                    raise InvalidRecordError(f"{kind} array {key} cannot be read: {exc}") from exc
    return arrays


def frame_stride(source_fps: float, target_fps: float) -> int:
    """round(source/target), at least 1; InvalidConfigError unless both rates and their ratio are finite and > 0."""
    for name, fps in (("target_fps", target_fps), ("source_fps", source_fps)):
        if not (math.isfinite(fps) and fps > 0):
            raise InvalidConfigError(f"{name} must be a positive finite number, got {fps}")
    if target_fps > source_fps:
        raise InvalidConfigError(f"target_fps {target_fps} exceeds source_fps {source_fps}")
    if not math.isfinite(source_fps / target_fps):
        raise InvalidConfigError(f"source_fps {source_fps} / target_fps {target_fps} is not a finite frame stride")
    return max(1, round(source_fps / target_fps))


def downsample(
    frames: Sequence[FrameDetections], source_fps: float, target_fps: float
) -> list[FrameDetections]:
    """Keep every `frame_stride(source_fps, target_fps)`-th frame, starting from the first."""
    return list(frames[:: frame_stride(source_fps, target_fps)])


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
    the ClipDataset fields they fill. A session of at least T + FT frames needs
    a sensor row for every frame: the first frame without one raises
    DataAlignmentError. A shorter session yields no clip and is not checked.
    """
    if T < 1:
        raise InvalidConfigError(f"history length T must be >= 1, got {T}")
    if FT < 1:
        raise InvalidConfigError(f"future offset FT must be >= 1, got {FT}")
    sensors_by_frame = {s.frame_index: s for s in sensors}
    rows = []
    if len(frames) >= T + FT:  # the session holds at least one anchor position
        for frame in frames:
            row = sensors_by_frame.get(frame.frame_index)
            if row is None:
                raise DataAlignmentError(f"no sensor row for frame {frame.frame_index}")
            rows.append(row)
    # Each frame's label code (-1 for coasting), turn flag and moving flag; "moving" is
    # the record's is_moving flag when set, else at least one active pedal.
    code = np.array([-1 if (label := derive_label(s)) is None else label for s in rows], dtype=np.int64)
    turning = np.array([abs(s.steering_angle) > MAX_STEERING_DEG for s in rows], dtype=bool)
    moving = np.array(
        [s.brake_pressure > 0 or s.accel_pedal > 0 if s.is_moving is None else s.is_moving for s in rows],
        dtype=bool,
    )
    turns_before = np.concatenate([[0], np.cumsum(turning, dtype=np.int64)])
    start = np.arange(len(rows) - T - FT + 1)  # first history position of each anchor
    keep = (code[start + T - 1 + FT] >= 0) & moving[start] & (turns_before[start + T] == turns_before[start])
    positions = start[keep] + T - 1
    windows = positions[:, None] + np.arange(1 - T, 1)
    used = np.zeros(len(frames), dtype=bool)
    used[windows] = True
    frame_feats = np.zeros((used.sum(), quota.total, 4), dtype=np.float64)
    frame_mask = np.zeros((len(frame_feats), quota.total), dtype=bool)
    for row, pos in enumerate(np.flatnonzero(used)):
        frame_feats[row], frame_mask[row] = select_top_n(frames[pos], quota)
    row_of = np.cumsum(used, dtype=np.int64) - 1  # frame table row of each used position
    return {
        "frames": frame_feats,
        "frame_mask": frame_mask,
        "windows": row_of[windows],
        "labels": code[positions + FT],
        "anchors": np.asarray([frames[i].frame_index for i in positions], dtype=np.int64),
        "scenarios": np.asarray([rows[i + FT].scenario for i in positions], dtype="U16"),
    }


def split_dataset(items: Sequence, seed: int = 0) -> tuple[list, list, list]:
    """Seeded shuffle then contiguous train/val/test partition by SPLIT_RATIOS.

    Val and test sizes are floors of their shares; the remainder goes to
    train (this reproduces 58721 -> 41105/5872/11744).
    """
    n = len(items)
    if n == 0:
        return [], [], []
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(np.floor(SPLIT_RATIOS[1] * n))
    n_test = int(np.floor(SPLIT_RATIOS[2] * n))
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
        header = {
            "schema": np.array(CLIPSET_SCHEMA),
            "dims": np.array([self.T, self.FT], dtype=np.int64),
            "quota": np.array(astuple(self.quota), dtype=np.int64),
        }
        keys = _CLIPSET_KEYS[CLIPSET_SCHEMA]
        np.savez_compressed(path, **{key: header[key] if key in header else getattr(self, key) for key in keys})

    @classmethod
    def load(cls, path: str | Path) -> "ClipDataset":
        """Read an archive `save` wrote, validated: the keys, the shapes against
        `dims` and `quota`, the window, label and split-index ranges, and finite
        float64 frames and norm statistics. A violation raises InvalidRecordError naming it.
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
        expected = {  # name: (shape, dtype kinds, where "f" is float64 only)
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
            if arr.shape != shape or arr.dtype.kind not in kinds or (kinds == "f" and arr.dtype != np.float64):
                kind = {"f": "float64", "b": "bools", "iu": "integers", "U": "strings"}[kinds]
                raise InvalidRecordError(f"clipset {key}: stored {arr.dtype} {arr.shape}, expected {kind} {shape}")
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
    values = (o["x1"], o["y1"], o["x2"], o["y2"], o["confidence"])
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise InvalidRecordError(f"box and confidence must be numbers, got {values!r}")
    return DetectedObject(category=o["category"], bbox=values[:4], confidence=values[4])


def _read_jsonl(
    path: str | Path, kind: str, parse: Callable[[dict], _Record]
) -> dict[str, list[_Record]]:
    """Parse every non-blank line with `parse` into per-session lists ordered by frame index.

    A line that is not UTF-8 or not a JSON object with a string `session`, a record
    that `parse` rejects, or a second record for the same session and frame index
    raises InvalidRecordError naming `path:line`; a file that cannot be opened
    raises InvalidConfigError naming `path`.
    """
    sessions: dict[str, list[_Record]] = {}
    first_line: dict[tuple[str, int], int] = {}
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise InvalidConfigError(f"cannot read {kind} log {path}: {exc.strerror or exc}") from exc
    with handle:
        # Lines end at \n, \r\n or \r, as in a text-mode read; each is decoded in the `try`.
        for lineno, raw in enumerate((line for chunk in handle for line in chunk.splitlines()), start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
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


def frame_record(session: str, frame: FrameDetections) -> dict:
    """The detection-log record of `frame` in `session`, as `_parse_frame` reads it."""
    return {
        "session": session,
        "frame_index": frame.frame_index,
        "timestamp": frame.timestamp,
        "width": frame.image_width,
        "height": frame.image_height,
        "objects": [
            {
                "category": o.category,
                "x1": o.bbox[0],
                "y1": o.bbox[1],
                "x2": o.bbox[2],
                "y2": o.bbox[3],
                "confidence": o.confidence,
            }
            for o in frame.objects
        ],
    }


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
    width, height = frame.image_width, frame.image_height
    if width <= 0 or height <= 0:
        raise InvalidRecordError(f"frame {frame.frame_index}: non-positive image dims")
    for obj in frame.objects:
        # The bounds also reject the NaN and infinite values that the type check lets through.
        x1, y1, x2, y2 = obj.bbox
        if not (0.0 <= x1 < x2 <= width and 0.0 <= y1 < y2 <= height):
            raise InvalidRecordError(f"bbox {obj.bbox} outside {width}x{height} image or degenerate")
        if not 0.0 <= obj.confidence <= 1.0:
            raise InvalidRecordError(f"confidence {obj.confidence} outside [0, 1]")
        super_category(obj.category)  # raises on an unknown category
    return frame


def sensor_record(session: str, sample: SensorSample) -> dict:
    """The sensor-log record of `sample` in `session`, as `_parse_sensor` reads it."""
    return {
        "session": session,
        "frame_index": sample.frame_index,
        "brake_kpa": sample.brake_pressure,
        "accel_pct": sample.accel_pedal,
        "steer_deg": sample.steering_angle,
        "scenario": sample.scenario,
        "is_moving": sample.is_moving,
    }


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
    if sample.brake_pressure < 0:
        raise InvalidRecordError(f"frame {sample.frame_index}: negative brake pressure {sample.brake_pressure}")
    if not 0.0 <= sample.accel_pedal <= 100.0:
        raise InvalidRecordError(
            f"frame {sample.frame_index}: accelerator percent {sample.accel_pedal} outside [0, 100]"
        )
    if sample.scenario not in ("highway", "urban"):
        raise InvalidRecordError(f"frame {sample.frame_index}: unknown scenario {sample.scenario!r}")
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
