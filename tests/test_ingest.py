"""Data preparation: downsampling, labeling, clip assembly, splits, archives."""
import copy
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.cli import main

from speedcast.errors import DataAlignmentError, InvalidConfigError, InvalidRecordError
from speedcast.ingest import (
    _CLIPSET_KEYS,
    CLIPSET_SCHEMA,
    ClipDataset,
    assemble_clips,
    build_dataset,
    derive_label,
    downsample,
    load_sessions,
    oversample,
    read_detection_log,
    read_sensor_log,
    select_top_n,
    split_dataset,
)
from speedcast.synth import SynthConfig, generate, write_logs
from speedcast.types import Action, CategoryQuota, DetectedObject, FrameDetections, SensorSample

QUOTA = CategoryQuota(3, 2, 1)
V1_ARCHIVE = Path(__file__).parent / "data" / "clipset_v1.npz"
CLIP_ARRAYS = (
    "features", "mask", "labels", "sessions", "anchors", "scenarios",
    "train_idx", "val_idx", "test_idx", "norm_mean", "norm_std",
)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def frame(i, objects=()):
    return FrameDetections(
        frame_index=i, timestamp=i / 3.0, image_width=1280, image_height=720,
        objects=list(objects),
    )


def sensor(i, brake=0.0, accel=30.0, steer=0.0, scenario="highway", moving=True):
    return SensorSample(i, brake, accel, steer, scenario, is_moving=moving)


def car(x1=100, y1=100, x2=300, y2=250, conf=0.9, cat="car"):
    return DetectedObject(cat, (float(x1), float(y1), float(x2), float(y2)), conf)


class TestDownsample:
    def test_stride_from_fps_ratio(self):
        frames = [frame(i) for i in range(30)]
        out = downsample(frames, source_fps=30.0, target_fps=3.0)
        assert [f.frame_index for f in out] == list(range(0, 30, 10))

    def test_equal_rates_keep_everything(self):
        frames = [frame(i) for i in range(7)]
        assert len(downsample(frames, 3.0, 3.0)) == 7

    def test_rejects_upsampling_and_bad_rates(self):
        with pytest.raises(InvalidConfigError):
            downsample([], 3.0, 30.0)
        with pytest.raises(InvalidConfigError):
            downsample([], 0.0, 3.0)
        with pytest.raises(InvalidConfigError):
            downsample([], 3.0, -1.0)


class TestDeriveLabel:
    def test_brake_dominates_both_pedals(self):
        s = sensor(0, brake=100.0, accel=50.0)
        assert derive_label(s) == Action.SLIGHT_BRAKING

    def test_coast_when_both_zero(self):
        assert derive_label(sensor(0, brake=0.0, accel=0.0)) is None

    def test_threshold_inclusive_on_full_side(self):
        assert derive_label(sensor(0, brake=958.0)) == Action.FULL_BRAKING
        assert derive_label(sensor(0, brake=0.0, accel=22.0)) == Action.FULL_ACCELERATION


class TestClipRule:
    """Which anchors `assemble_clips` keeps: a turn-free window, moving at its start, a non-coast target."""

    def _anchors(self, sensors, T=3, FT=1):
        frames = [frame(s.frame_index, [car()]) for s in sensors]
        return assemble_clips(frames, sensors, T=T, FT=FT, quota=QUOTA)["anchors"].tolist()

    @pytest.mark.parametrize("steer", [31.0, -31.0])
    def test_turn_anywhere_in_window_disqualifies(self, steer):
        assert self._anchors([sensor(i) for i in range(6)]) == [2, 3, 4]
        for turn in range(6):  # frame 5 is only a target, never history
            sensors = [sensor(i, steer=steer if i == turn else 0.0) for i in range(6)]
            assert self._anchors(sensors) == [a for a in (2, 3, 4) if not a - 2 <= turn <= a], turn

    def test_boundary_steering_is_allowed(self):
        sensors = [sensor(i, steer=30.0 if i % 2 else -30.0) for i in range(6)]
        assert self._anchors(sensors) == [2, 3, 4]

    def test_not_moving_at_window_start_disqualifies(self):
        sensors = [sensor(i, moving=i != 1) for i in range(6)]
        assert self._anchors(sensors) == [2, 4]  # anchor 3's window starts at frame 1

    @pytest.mark.parametrize(
        "pedals, kept",
        [(dict(brake=0.0, accel=0.0), [2, 4]), (dict(brake=100.0, accel=0.0), [2, 3, 4]), (dict(accel=5.0), [2, 3, 4])],
    )
    def test_pedals_decide_moving_when_the_flag_is_unset(self, pedals, kept):
        sensors = [sensor(i, **pedals, moving=None) if i == 1 else sensor(i) for i in range(6)]
        assert self._anchors(sensors) == kept

    @pytest.mark.parametrize("brake", [0.0, 1500.0], ids=["coasting", "braking"])
    def test_missing_sensor_row_raises_whatever_the_pedals(self, brake):
        frames = [frame(i) for i in range(12)]
        sensors = [sensor(i, brake=brake, accel=0.0) for i in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11)]
        with pytest.raises(DataAlignmentError, match="^no sensor row for frame 5$"):
            assemble_clips(frames, sensors, T=8, FT=1, quota=QUOTA)
        with pytest.raises(DataAlignmentError, match="^no sensor row for frame 2$"):
            assemble_clips(frames, sensors[:2] + sensors[3:], T=8, FT=1, quota=QUOTA)

    def test_session_too_short_for_an_anchor_is_not_checked(self):
        frames = [frame(i) for i in range(8)]
        clips = assemble_clips(frames, [], T=8, FT=1, quota=QUOTA)
        assert clips["windows"].shape == (0, 8)


class TestSelectTopN:
    def test_confidence_order_and_normalization(self):
        objs = [
            car(conf=0.5),
            car(x1=0, y1=0, x2=640, y2=360, conf=0.9),
            car(conf=0.7, cat="truck"),
            car(conf=0.6, cat="bus"),
        ]
        feats, mask = select_top_n(frame(0, objs), QUOTA)
        assert mask[:3].all() and not mask[3:].any()
        # highest confidence first; coordinates divided by image dims
        np.testing.assert_allclose(feats[0], [0.0, 0.0, 0.5, 0.5])

    def test_tie_breaks_by_original_index(self):
        objs = [car(x1=10, conf=0.8), car(x1=20, conf=0.8)]
        feats, _ = select_top_n(frame(0, objs), QUOTA)
        assert feats[0, 0] == pytest.approx(10 / 1280)

    def test_views_fill_their_own_slots(self):
        objs = [
            car(),
            DetectedObject("pedestrian", (50.0, 300.0, 90.0, 420.0), 0.8),
            DetectedObject("stop_sign", (900.0, 80.0, 940.0, 160.0), 0.7),
        ]
        feats, mask = select_top_n(frame(0, objs), QUOTA)
        assert mask[0] and mask[3] and mask[5]
        assert not mask[1] and not mask[4]

    def test_empty_slots_are_zero(self):
        feats, mask = select_top_n(frame(0, [car()]), QUOTA)
        assert not mask[1:].any()
        assert np.all(feats[1:] == 0.0)


class TestAssembleClips:
    def _session(self, n=12):
        frames = [frame(i, [car()]) for i in range(n)]
        sensors = [sensor(i) for i in range(n)]
        return frames, sensors

    def test_anchor_range_and_shapes(self):
        frames, sensors = self._session()
        clips = assemble_clips(frames, sensors, T=4, FT=2, quota=QUOTA)
        # anchors run from T-1 to len-FT-1 inclusive
        m = 12 - 2 - 3
        assert clips["windows"].shape == (m, 4)
        # frames 0 .. 9 are each some clip's history, stored once
        assert clips["frames"].shape == (10, QUOTA.total, 4)
        assert clips["frame_mask"].shape == (10, QUOTA.total)
        assert clips["labels"].shape == clips["scenarios"].shape == (m,)
        np.testing.assert_array_equal(clips["anchors"], np.arange(3, 3 + m))
        np.testing.assert_array_equal(clips["windows"], np.arange(m)[:, None] + np.arange(4))

    def test_each_clip_holds_its_own_window(self):
        frames = [frame(i, [car(x1=10 * i)]) for i in range(12)]
        sensors = [sensor(i) for i in range(12)]
        clips = assemble_clips(frames, sensors, T=4, FT=2, quota=QUOTA)
        for k, anchor in enumerate(clips["anchors"]):
            for t in range(4):
                feats, mask = select_top_n(frames[anchor - 3 + t], QUOTA)
                row = clips["windows"][k, t]
                np.testing.assert_array_equal(clips["frames"][row], feats)
                np.testing.assert_array_equal(clips["frame_mask"][row], mask)

    def test_no_valid_anchor_gives_empty_arrays(self):
        frames, sensors = self._session(n=4)
        clips = assemble_clips(frames, sensors, T=4, FT=2, quota=QUOTA)
        assert clips["frames"].shape == (0, QUOTA.total, 4)
        assert clips["windows"].shape == (0, 4) and clips["windows"].dtype == np.int64
        assert clips["labels"].dtype == np.int64 and len(clips["anchors"]) == 0

    def test_coast_targets_are_skipped(self):
        frames, sensors = self._session()
        sensors[6] = sensor(6, accel=0.0)
        clips = assemble_clips(frames, sensors, T=4, FT=2, quota=QUOTA)
        assert 4 not in clips["anchors"]

    def test_turn_in_history_skips_the_clip(self):
        frames, sensors = self._session()
        sensors[4] = sensor(4, steer=40.0)
        clips = assemble_clips(frames, sensors, T=4, FT=2, quota=QUOTA)
        assert not np.any((clips["anchors"] - 3 <= 4) & (4 <= clips["anchors"]))
        # frame 4 is in no clip's history, so the frame table skips it
        np.testing.assert_array_equal(np.unique(clips["windows"]), np.arange(len(clips["frames"])))
        assert len(clips["frames"]) == 9

    def test_bad_dims_raise(self):
        frames, sensors = self._session()
        with pytest.raises(InvalidConfigError):
            assemble_clips(frames, sensors, T=0, FT=1, quota=QUOTA)
        with pytest.raises(InvalidConfigError):
            assemble_clips(frames, sensors, T=2, FT=0, quota=QUOTA)


class TestSplit:
    def test_reference_scale_counts(self):
        train, val, test = split_dataset(list(range(58721)), seed=0)
        assert (len(train), len(val), len(test)) == (41105, 5872, 11744)

    def test_partition_is_disjoint_and_complete(self):
        train, val, test = split_dataset(list(range(100)), seed=3)
        assert sorted(train + val + test) == list(range(100))

    def test_seed_determinism(self):
        a = split_dataset(list(range(50)), seed=9)
        b = split_dataset(list(range(50)), seed=9)
        assert a == b
        c = split_dataset(list(range(50)), seed=10)
        assert a != c


class TestOversample:
    def test_histogram_becomes_uniform(self):
        labels = np.array([0] * 8 + [1] * 3 + [2] * 5 + [3] * 1)
        out = oversample(labels, seed=0)
        assert np.all(np.bincount(labels[out], minlength=4) == 8)

    def test_originals_are_kept(self):
        labels = np.array([0, 0, 1])
        with pytest.warns(UserWarning, match="no training samples"):
            out = oversample(labels, seed=0)
        np.testing.assert_array_equal(out[: len(labels)], np.arange(len(labels)))
        assert np.all(labels[out[len(labels) :]] == 1)

    def test_missing_class_warns_and_stays_empty(self):
        labels = np.array([0, 0, 0])
        with pytest.warns(UserWarning):
            out = oversample(labels, seed=0)
        hist = np.bincount(labels[out], minlength=4)
        assert hist[0] == 3 and hist[1:].sum() == 0


class TestBuildDataset:
    def test_train_split_is_uniform_after_oversampling(self, small_dataset):
        hist = np.bincount(small_dataset.labels[small_dataset.train_idx], minlength=4)
        assert hist.min() == hist.max() > 0

    def test_val_test_untouched_by_oversampling(self, small_dataset):
        joined = np.concatenate([small_dataset.val_idx, small_dataset.test_idx])
        assert len(np.unique(joined)) == len(joined)
        assert not np.intersect1d(np.unique(small_dataset.train_idx), joined).size

    def test_standardization_uses_train_stats(self, small_dataset):
        ds = small_dataset
        rows = np.unique(ds.train_idx)
        valid = ds.features[rows][ds.mask[rows]]
        np.testing.assert_allclose(valid.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(valid.std(axis=0), 1.0, atol=1e-9)

    def test_padded_slots_stay_zero(self, small_dataset):
        assert np.all(small_dataset.features[~small_dataset.mask] == 0.0)

    def test_stats_are_recorded(self, small_dataset):
        assert small_dataset.norm_mean.shape == (4,)
        assert np.all(small_dataset.norm_std > 0)

    def test_frame_table_holds_each_used_frame_once(self, small_dataset):
        ds = small_dataset
        frame_of_row = {}
        for i, t in np.ndindex(ds.windows.shape):
            key = (str(ds.sessions[i]), int(ds.anchors[i]) - ds.T + 1 + t)
            assert frame_of_row.setdefault(int(ds.windows[i, t]), key) == key
        assert sorted(frame_of_row) == list(range(len(ds.frames)))
        assert len(set(frame_of_row.values())) == len(ds.frames)

    def test_subset_gathers_the_expanded_clips(self, small_dataset):
        idx = small_dataset.train_idx[:7]
        feats, mask, labels = small_dataset.subset(idx)
        assert_same_bits(feats, small_dataset.features[idx])
        assert_same_bits(mask, small_dataset.mask[idx])
        assert_same_bits(labels, small_dataset.labels[idx])


class TestArchiveRoundTrip:
    def test_save_load_is_bit_exact(self, small_dataset, tmp_path):
        path = tmp_path / "clips.npz"
        small_dataset.save(path)
        loaded = ClipDataset.load(path)
        for key in ("frames", "frame_mask", "windows", *CLIP_ARRAYS):
            assert_same_bits(getattr(loaded, key), getattr(small_dataset, key))
        np.testing.assert_array_equal(loaded.labels, small_dataset.labels)
        np.testing.assert_array_equal(loaded.train_idx, small_dataset.train_idx)
        np.testing.assert_array_equal(loaded.norm_mean, small_dataset.norm_mean)
        np.testing.assert_array_equal(loaded.norm_std, small_dataset.norm_std)
        assert loaded.T == small_dataset.T
        assert loaded.quota == small_dataset.quota

    def test_arrays_are_saved_in_declared_order(self, small_dataset, tmp_path):
        path = tmp_path / "clips.npz"
        small_dataset.save(path)
        with np.load(path) as data:
            assert data.files == list(_CLIPSET_KEYS[CLIPSET_SCHEMA])

    def test_long_session_name_survives_round_trip(self, small_synth, tmp_path):
        name = "x" * 70
        streams = {name: small_synth.sessions["s000"]}
        ds = build_dataset(streams, T=5, FT=1, quota=QUOTA, seed=4)
        assert len(ds) > 0
        path = tmp_path / "clips.npz"
        ds.save(path)
        loaded = ClipDataset.load(path)
        assert set(loaded.sessions.tolist()) == {name}

    def test_schema_1_archive_loads_as_its_writer_loaded_it(self):
        """A /1 archive loads to the per-clip arrays it stores, which is what the /1 loader returned."""
        loaded = ClipDataset.load(V1_ARCHIVE)
        with np.load(V1_ARCHIVE) as data:
            assert str(data["schema"]) == "speedcast-clipset/1"
            stored = {key: data[key] for key in data.files}
        assert (loaded.T, loaded.FT) == tuple(stored["dims"])
        assert loaded.quota == CategoryQuota(*(int(x) for x in stored["quota"]))
        for key in CLIP_ARRAYS:
            assert_same_bits(getattr(loaded, key), stored[key])

    def test_build_reproduces_the_schema_1_archive(self):
        """The frame table expands to the clips, split and statistics the /1 writer stored, bit for bit."""
        synth = generate(SynthConfig(sessions=3, frames_per_session=40, seed=21))
        ds = build_dataset(synth.sessions, T=4, FT=1, quota=QUOTA, seed=5)
        assert len(ds.frames) < ds.windows.size
        with np.load(V1_ARCHIVE) as data:
            for key in CLIP_ARRAYS:
                assert_same_bits(getattr(ds, key), data[key])

    def test_schema_1_clip_shapes_checked(self, tmp_path):
        with np.load(V1_ARCHIVE) as data:
            payload = {key: data[key] for key in data.files}
        payload["features"] = payload["features"][:, :-1]
        path = tmp_path / "clips.npz"
        np.savez(path, **payload)
        with pytest.raises(InvalidRecordError, match="features"):
            ClipDataset.load(path)

    def test_schema_1_float32_features_rejected(self, tmp_path):
        with np.load(V1_ARCHIVE) as data:
            payload = {key: data[key] for key in data.files}
        payload["features"] = payload["features"].astype(np.float32)
        path = tmp_path / "clips.npz"
        np.savez(path, **payload)
        with pytest.raises(InvalidRecordError, match=r"clipset frames: stored float32 .* expected float64"):
            ClipDataset.load(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, schema=np.array("other/9"))
        with pytest.raises(InvalidRecordError):
            ClipDataset.load(path)

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "clips.npz"
        path.write_text("not an archive")
        with pytest.raises(InvalidRecordError, match="not a clipset archive"):
            ClipDataset.load(path)

    @staticmethod
    def _set(d, key, index, value):
        d[key] = d[key].copy()
        d[key][index] = value

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.pop("labels"), "labels"),
            (lambda d: d.update({"test_idx": np.append(d["test_idx"], len(d["labels"]))}), "test_idx"),
            (lambda d: d.update({"frame_mask": d["frame_mask"][:, :-1]}), "frame_mask"),
            (lambda d: TestArchiveRoundTrip._set(d, "frames", (0, 0, 0), np.nan), "frames hold a non-finite"),
            (lambda d: TestArchiveRoundTrip._set(d, "windows", (0, 0), len(d["frames"])), "windows"),
            (lambda d: TestArchiveRoundTrip._set(d, "windows", (-1, -1), -1), "windows"),
            (lambda d: d.update({"windows": d["windows"][:, :-1]}), "windows"),
            (
                lambda d: d.update({"windows": d["windows"].astype(float)}),
                r"windows: stored float64 .* expected integers",
            ),
            (lambda d: d.update({"labels": d["labels"] + 4}), "labels"),
            (lambda d: d.update({"norm_std": np.zeros(4)}), "norm"),
            (lambda d: d.update({"dims": np.array([5])}), "dims"),
            (lambda d: d.update({"labels": d["labels"].astype(object)}), "clipset array labels cannot be read"),
            # The writer stores frames and norm statistics in float64 only.
            (
                lambda d: d.update({"frames": d["frames"].astype(np.float32)}),
                r"clipset frames: stored float32 .* expected float64",
            ),
            (
                lambda d: d.update({"norm_mean": d["norm_mean"].astype(np.float16)}),
                r"clipset norm_mean: stored float16 .* expected float64",
            ),
            (
                lambda d: d.update({"norm_std": d["norm_std"].astype(np.float32)}),
                r"clipset norm_std: stored float32 .* expected float64",
            ),
        ],
        ids=[
            "missing-array", "index-range", "mask-shape", "nan-feature", "window-past-frames",
            "window-negative", "windows-shape", "windows-float", "label-range", "norm-std", "dims", "object-labels",
            "frames-float32", "norm-mean-float16", "norm-std-float32",
        ],
    )
    def test_foreign_content_rejected(self, small_dataset, tmp_path, edit, named):
        path = tmp_path / "clips.npz"
        small_dataset.save(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        edit(payload)
        np.savez(path, **payload)
        with pytest.raises(InvalidRecordError, match=named):
            ClipDataset.load(path)


class TestLogIO:
    def test_malformed_detection_record_raises_with_line(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"session": "a"}\n')
        with pytest.raises(InvalidRecordError, match=":1:"):
            read_detection_log(path)

    def test_malformed_sensor_record_raises(self, tmp_path):
        path = tmp_path / "sensors.jsonl"
        path.write_text('{"session": "a", "frame_index": "x"}\n')
        with pytest.raises(InvalidRecordError):
            read_sensor_log(path)

    def test_repeated_detection_frame_rejected(self, tmp_path):
        rows = [
            {"session": "a", "frame_index": i, "timestamp": i / 3, "width": 10, "height": 10, "objects": []}
            for i in (0, 1, 1)
        ]
        self._assert_repeat_rejected(tmp_path, "detections", rows, {**SENSOR_RECORD, "session": "a"})

    def test_repeated_sensor_frame_rejected(self, tmp_path):
        rows = [{**SENSOR_RECORD, "frame_index": 1, "brake_kpa": kpa} for kpa in (5.0, 2000.0)]
        self._assert_repeat_rejected(tmp_path, "sensors", rows, DETECTION_RECORD)

    @staticmethod
    def _assert_repeat_rejected(logs, log, rows, other_record):
        """The second record of a frame fails the reader at its own line, and `prepare` with exit 3."""
        other = "sensors" if log == "detections" else "detections"
        (logs / f"{log}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        (logs / f"{other}.jsonl").write_text(json.dumps(other_record) + "\n")
        path = logs / f"{log}.jsonl"
        reader = read_detection_log if log == "detections" else read_sensor_log
        with pytest.raises(InvalidRecordError, match=re.escape(f"{path}:{len(rows)}: repeated")):
            reader(path)
        assert main(["prepare", "--logs", str(logs), "--out", str(logs / "out")]) == 3

    def test_line_that_is_not_utf8_is_malformed_record_with_its_line(self, tmp_path):
        """A byte that is not UTF-8 fails its own line, and `prepare` with exit 3, like any bad record."""
        path = tmp_path / "detections.jsonl"
        path.write_bytes(json.dumps(DETECTION_RECORD).encode() + b"\n\xff" + json.dumps(DETECTION_RECORD).encode())
        (tmp_path / "sensors.jsonl").write_text(json.dumps(SENSOR_RECORD) + "\n")
        with pytest.raises(InvalidRecordError, match=re.escape(f"{path}:2: malformed detection record: ")):
            read_detection_log(path)
        assert main(["prepare", "--logs", str(tmp_path), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_lines_are_counted_at_every_line_ending(self, tmp_path, ending):
        """A record's line number counts blank lines and \\n, \\r\\n or \\r endings, as a text-mode read does."""
        path = tmp_path / "sensors.jsonl"
        rows = [json.dumps(SENSOR_RECORD), "", json.dumps({**SENSOR_RECORD, "frame_index": 4}), "{"]
        path.write_bytes(ending.join(rows).encode())
        with pytest.raises(InvalidRecordError, match=re.escape(f"{path}:4: malformed sensor record")):
            read_sensor_log(path)

    def test_frames_sorted_by_index(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        rows = [
            '{"session":"a","frame_index":2,"timestamp":0.6,"width":10,"height":10,"objects":[]}',
            '{"session":"a","frame_index":0,"timestamp":0.0,"width":10,"height":10,"objects":[]}',
        ]
        path.write_text("\n".join(rows) + "\n")
        sessions = read_detection_log(path)
        assert [f.frame_index for f in sessions["a"]] == [0, 2]


DETECTION_RECORD = {
    "session": "s000", "frame_index": 3, "timestamp": 1.0, "width": 1280, "height": 720,
    "objects": [{"category": "car", "x1": 10.0, "y1": 20.0, "x2": 200.0, "y2": 150.0, "confidence": 0.9}],
}
SENSOR_RECORD = {
    "session": "s000", "frame_index": 3, "brake_kpa": 0.0, "accel_pct": 30.0, "steer_deg": 1.5,
    "scenario": "urban", "is_moving": True,
}
# Field paths of each record by the JSON type they must hold.
LOG_FIELDS = {
    "detections": {
        "integer": [("frame_index",), ("width",), ("height",)],
        "number": [("timestamp",)] + [("objects", 0, k) for k in ("x1", "y1", "x2", "y2", "confidence")],
        "string": [("session",), ("objects", 0, "category")],
        "list": [("objects",)],
    },
    "sensors": {
        "integer": [("frame_index",)],
        "number": [("brake_kpa",), ("accel_pct",), ("steer_deg",)],
        "string": [("session",), ("scenario",)],
        "flag": [("is_moving",)],  # optional: true, false or null
    },
}
_texts = st.text(max_size=4)
_fractions = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer())
_containers = st.one_of(st.lists(st.integers(), max_size=2), st.dictionaries(_texts, st.integers(), max_size=2))
WRONG_TYPES = {
    "integer": st.one_of(_texts, st.booleans(), _fractions, _containers),
    "number": st.one_of(_texts, st.booleans(), _containers),
    "string": st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), _containers),
    "list": st.one_of(_texts, st.integers(), st.dictionaries(_texts, st.integers(), max_size=2)),
    "flag": st.one_of(_texts, st.integers(), st.floats(allow_nan=False), _containers),
}
BIG = "__1e999__"  # replaced by a literal that parses to infinity


@st.composite
def corrupted_log_lines(draw):
    """(log name, one JSON line that is a valid record with exactly one corruption)."""
    log = draw(st.sampled_from(sorted(LOG_FIELDS)))
    record = copy.deepcopy(DETECTION_RECORD if log == "detections" else SENSOR_RECORD)
    fields = LOG_FIELDS[log]
    corruption = draw(st.sampled_from(["drop", "wrong-type", "null", "non-finite", "non-object", "truncated"]))
    if corruption == "non-object":
        return log, json.dumps(draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(), _texts, st.none())))
    if corruption == "truncated":
        line = json.dumps(record)
        return log, line[: draw(st.integers(1, len(line) - 1))]
    kinds = {"non-finite": ["integer", "number"], "drop": [k for k in fields if k != "flag"]}
    kinds["null"] = kinds["drop"]
    kind = draw(st.sampled_from(kinds.get(corruption, sorted(fields))))
    *parents, key = draw(st.sampled_from(fields[kind]))
    target = record
    for step in parents:
        target = target[step]
    if corruption == "drop":
        del target[key]
    elif corruption == "null":
        target[key] = None
    elif corruption == "non-finite":
        target[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), BIG]))
    else:
        target[key] = draw(WRONG_TYPES[kind])
    return log, json.dumps(record).replace(f'"{BIG}"', "1e999")


class TestLogValidation:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_log_lines(), st.integers(0, 2))
    def test_corrupted_record_is_rejected_with_its_line(self, case, valid_before):
        """Any one corruption of a valid record fails the reader at path:line and `prepare` with exit 3."""
        log, bad_line = case
        valid = {"detections": DETECTION_RECORD, "sensors": SENSOR_RECORD}
        with tempfile.TemporaryDirectory() as tmp:
            logs = Path(tmp)
            for name, record in valid.items():
                # valid records of other frames, since a repeated frame is itself invalid
                good = [json.dumps({**record, "frame_index": 10 + k}) for k in range(valid_before + 1)]
                lines = good[:valid_before] + ([bad_line] if name == log else []) + good[valid_before:]
                (logs / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
            path = logs / f"{log}.jsonl"
            reader = read_detection_log if log == "detections" else read_sensor_log
            with pytest.raises(InvalidRecordError, match=re.escape(f"{path}:{valid_before + 1}:")):
                reader(path)
            assert main(["prepare", "--logs", str(logs), "--out", str(logs / "out")]) == 3

    def test_valid_records_parse(self, tmp_path):
        (tmp_path / "detections.jsonl").write_text(json.dumps(DETECTION_RECORD) + "\n")
        (tmp_path / "sensors.jsonl").write_text(json.dumps({**SENSOR_RECORD, "is_moving": None}) + "\n")
        (frame,) = read_detection_log(tmp_path / "detections.jsonl")["s000"]
        (sample,) = read_sensor_log(tmp_path / "sensors.jsonl")["s000"]
        assert frame.objects[0].bbox == (10.0, 20.0, 200.0, 150.0)
        assert sample.is_moving is None and sample.steering_angle == 1.5

    @pytest.mark.parametrize(
        "log,change,message",
        [
            ("detections", {"width": 0}, "frame 3: non-positive image dims"),
            ("detections", {"height": -720}, "frame 3: non-positive image dims"),
            ("detections", {"x2": 1280.5}, "bbox (10.0, 20.0, 1280.5, 150.0) outside 1280x720 image or degenerate"),
            ("detections", {"y1": -1.0}, "bbox (10.0, -1.0, 200.0, 150.0) outside 1280x720 image or degenerate"),
            ("detections", {"x1": 200.0}, "bbox (200.0, 20.0, 200.0, 150.0) outside 1280x720 image or degenerate"),
            ("detections", {"y2": float("nan")}, "bbox (10.0, 20.0, 200.0, nan) outside 1280x720 image or degenerate"),
            ("detections", {"confidence": 1.5}, "confidence 1.5 outside [0, 1]"),
            ("detections", {"confidence": -0.25}, "confidence -0.25 outside [0, 1]"),
            ("detections", {"category": "bicycle"}, "unknown object category: 'bicycle'"),
            ("detections", {"category": ["car"]}, "unhashable type: 'list'"),
            ("sensors", {"brake_kpa": -1.0}, "frame 3: negative brake pressure -1.0"),
            ("sensors", {"accel_pct": 100.5}, "frame 3: accelerator percent 100.5 outside [0, 100]"),
            ("sensors", {"accel_pct": -0.5}, "frame 3: accelerator percent -0.5 outside [0, 100]"),
            ("sensors", {"scenario": "rural"}, "frame 3: unknown scenario 'rural'"),
            ("sensors", {"scenario": 5}, "frame 3: unknown scenario 5"),
            # Two rules broken at once: the first in check order is the one reported.
            ("detections", {"width": -1, "x2": 5000.0}, "frame 3: non-positive image dims"),
            ("detections", {"confidence": 2.0, "category": "bicycle"}, "confidence 2.0 outside [0, 1]"),
            ("sensors", {"brake_kpa": -2.0, "scenario": "rural"}, "frame 3: negative brake pressure -2.0"),
        ],
    )
    def test_out_of_range_record_is_rejected_with_its_line(self, tmp_path, log, change, message):
        """A well-typed record that breaks a range rule fails the reader at path:line with that rule's message."""
        record = copy.deepcopy(DETECTION_RECORD if log == "detections" else SENSOR_RECORD)
        for key, value in change.items():  # a key the record lacks belongs to its one object
            (record if key in record else record["objects"][0])[key] = value
        path = tmp_path / f"{log}.jsonl"
        path.write_text(json.dumps(record) + "\n")
        reader = read_detection_log if log == "detections" else read_sensor_log
        kind = "detection" if log == "detections" else "sensor"
        with pytest.raises(InvalidRecordError) as info:
            reader(path)
        assert str(info.value) == f"{path}:1: malformed {kind} record: {message}"


class TestLoadSessions:
    @pytest.fixture
    def logs(self, tmp_path):
        write_logs(generate(SynthConfig(sessions=2, frames_per_session=12, seed=1)), tmp_path)
        return tmp_path

    def test_pairs_and_downsamples_every_session(self, logs):
        sessions = load_sessions(logs, source_fps=3.0, target_fps=1.0)
        assert sorted(sessions) == ["s000", "s001"]
        for frames, sensors in sessions.values():
            assert [f.frame_index for f in frames] == list(range(0, 12, 3))
            assert [s.frame_index for s in sensors] == [f.frame_index for f in frames]

    def test_session_without_sensor_rows_is_alignment_error(self, logs):
        sensors = logs / "sensors.jsonl"
        rows = sensors.read_text().splitlines(True)
        sensors.write_text("".join(r for r in rows if '"s000"' not in r))
        with pytest.raises(DataAlignmentError, match="s000"):
            load_sessions(logs)
