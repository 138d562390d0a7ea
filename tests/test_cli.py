"""Command-line interface: artifacts, manifests, exit codes."""
import contextlib
import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from speedcast import cli, evaluation
from speedcast import train as train_module
from speedcast.cli import main
from speedcast.evaluation import SweepSpec, run_ablation
from speedcast.ingest import ClipDataset, load_sessions
from speedcast.synth import SynthConfig, SynthResult, write_logs
from speedcast.train import TrainConfig
from speedcast.types import CategoryQuota, DetectedObject, FrameDetections, SensorSample


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SYNTH_JSON = json.dumps({"sessions": 4, "frames_per_session": 40, "seed": 5})


@pytest.fixture(scope="module")
def logs_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("logs")
    cfg = out / "synth.json"
    cfg.write_text(SYNTH_JSON)
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture
def unpaired_logs_dir(logs_dir, tmp_path):
    """The shared logs with every sensor row of session s000 removed."""
    (tmp_path / "detections.jsonl").write_text((logs_dir / "detections.jsonl").read_text())
    rows = (logs_dir / "sensors.jsonl").read_text().splitlines(True)
    (tmp_path / "sensors.jsonl").write_text("".join(r for r in rows if '"s000"' not in r))
    return tmp_path


class TestSynthCommand:
    def test_writes_logs_and_manifest(self, logs_dir):
        assert (logs_dir / "detections.jsonl").exists()
        assert (logs_dir / "sensors.jsonl").exists()
        manifest = json.loads((logs_dir / "run_manifest.json").read_text())
        assert manifest["schema"] == "speedcast-manifest/1"
        assert manifest["command"] == "synth"
        for entry in manifest["artifacts"].values():
            assert sha256(Path(entry["path"])) == entry["sha256"]

    def test_idempotent_given_same_seed(self, logs_dir, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(SYNTH_JSON)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "detections.jsonl") == sha256(logs_dir / "detections.jsonl")
        assert sha256(tmp_path / "sensors.jsonl") == sha256(logs_dir / "sensors.jsonl")

    @pytest.mark.parametrize("payload", ['"ab"', "null"])
    def test_non_object_config_is_config_error(self, tmp_path, capsys, payload):
        cfg = tmp_path / "synth.json"
        cfg.write_text(payload)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"error: synth config {cfg} is not a JSON object: {payload!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["synth --config", "pipeline --synth-config"])
    def test_fps_too_small_for_finite_timestamps_is_config_error(self, tmp_path, capsys, flag):
        """Frame 2 of a session at 1e-308 fps would be stamped inf, which `prepare` rejects."""
        cfg = tmp_path / "synth.json"
        cfg.write_text('{"fps": 1e-308}')
        assert main([*flag.split(), str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "error: SynthConfig field fps 1e-308 is too small: frame 139" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPrepareCommand:
    def test_builds_archive(self, logs_dir, tmp_path):
        rc = main(
            [
                "prepare", "--logs", str(logs_dir), "--out", str(tmp_path),
                "--T", "4", "--FT", "1", "--quota", "3,2,1", "--seed", "0",
            ]
        )
        assert rc == 0
        ds = ClipDataset.load(tmp_path / "clips.npz")
        assert len(ds) > 0
        assert ds.T == 4 and ds.quota.total == 6
        hist = np.bincount(ds.labels[ds.train_idx], minlength=4)
        assert hist.min() == hist.max()

    def test_bad_quota_is_config_error(self, logs_dir, tmp_path, capsys):
        for quota in ("3,2", "a,b,c", "0,1,1"):
            rc = main(
                ["prepare", "--logs", str(logs_dir), "--out", str(tmp_path), "--quota", quota]
            )
            assert rc == 2, quota
            err = capsys.readouterr().err
            assert f"--quota expects three positive counts car,ped,traffic, got {quota!r}" in err

    @pytest.mark.parametrize("value", ["0", "100000000000000000000"], ids=["zero", "above-int64"])
    @pytest.mark.parametrize(
        "flag,named", [("--T", "history length T"), ("--FT", "future offset FT")], ids=["T", "FT"]
    )
    def test_clip_setting_error_leaves_no_out_directory(self, logs_dir, tmp_path, capsys, flag, named, value):
        out = tmp_path / "out"
        assert main(["prepare", "--logs", str(logs_dir), "--out", str(out), f"{flag}={value}"]) == 2
        assert f"error: {named} must be in [1, {2**63 - 1}], got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_history_longer_than_every_session_gives_no_clips(self, logs_dir, tmp_path, capsys):
        """Windows are built for the kept anchors only, so a T of 4e9 allocates no array of T positions."""
        tracemalloc.start()
        try:
            assert main(["prepare", "--logs", str(logs_dir), "--out", str(tmp_path / "out"), "--T", "4000000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "warning: no clips assembled from the given logs\n"
        assert peak < 50 * 2**20
        assert ClipDataset.load(tmp_path / "out" / "clips.npz").windows.shape == (0, 4000000000)

    def test_session_without_sensor_rows_is_data_error(self, unpaired_logs_dir, tmp_path, capsys):
        rc = main(["prepare", "--logs", str(unpaired_logs_dir), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "s000" in capsys.readouterr().err

    @pytest.mark.parametrize("brake", [0.0, 1500.0], ids=["coasting", "braking"])
    def test_missing_sensor_row_is_data_error_naming_the_frame(self, tmp_path, capsys, brake):
        """A missing row fails whether or not any target of the session has a label."""
        box = DetectedObject("car", (100.0, 100.0, 300.0, 250.0), 0.9)
        frames = [FrameDetections(i, i / 3.0, 1280, 720, [box]) for i in range(12)]
        sensors = [SensorSample(i, brake, 0.0, 0.0, "urban", True) for i in range(12) if i != 5]
        write_logs(SynthResult({"s000": (frames, sensors)}, {}, SynthConfig()), tmp_path / "logs")
        rc = main(["prepare", "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "out"), "--T", "8"])
        assert rc == 3
        assert capsys.readouterr().err == "error: no sensor row for frame 5\n"

    @pytest.mark.parametrize("flag", ["--source-fps", "--target-fps"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_fps_is_config_error(self, logs_dir, tmp_path, capsys, flag, value):
        assert main(["prepare", "--logs", str(logs_dir), "--out", str(tmp_path / "out"), flag, value]) == 2
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be a positive finite number, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["prepare", "pipeline"])
    def test_fps_ratio_without_finite_stride_is_config_error(self, logs_dir, tmp_path, capsys, command):
        """1e308 / 1e-308 is inf: no frame stride, so exit 2 before --out is made, `pipeline` before synth."""
        out = tmp_path / "out"
        args = [command, "--out", str(out), "--source-fps", "1e308", "--target-fps", "1e-308"]
        assert main(args + (["--logs", str(logs_dir)] if command == "prepare" else [])) == 2
        assert "error: source_fps 1e+308 / target_fps 1e-308 is not a finite frame stride" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_logs_dir_is_error(self, tmp_path, capsys):
        rc = main(["prepare", "--logs", str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc == 2
        assert f"error: cannot read detection log {tmp_path / 'nope' / 'detections.jsonl'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, kind",
    [
        (["train", "--archive", "{missing}", "--out", "{out}"], "clipset archive"),
        (["eval", "--archive", "{missing}", "--checkpoint", "{missing}"], "clipset archive"),
        (["synth", "--config", "{missing}", "--out", "{out}"], "synth config"),
        (["train", "--archive", "{missing}", "--config", "{missing}", "--out", "{out}"], "train config"),
        (["pipeline", "--synth-config", "{missing}", "--out", "{out}"], "synth config"),
    ],
)
def test_missing_input_file_is_config_error(tmp_path, capsys, args, kind):
    missing = tmp_path / "nonexistent"
    assert main([arg.format(missing=missing, out=tmp_path / "out") for arg in args]) == 2
    assert f"error: cannot read {kind} {missing}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, name",
    [
        ("synth", '{"confound": "no"}', "confound"),
        ("synth", '{"sessions": "3"}', "sessions"),
        ("train", '{"batch_size": true}', "batch_size"),
        ("train", '{"batch_size": 1.5}', "batch_size"),
    ],
)
def test_ill_typed_config_field_is_config_error(tmp_path, capsys, command, payload, name):
    config = tmp_path / "config.json"
    config.write_text(payload)
    args = {
        "synth": ["synth", "--config", str(config)],
        "train": ["train", "--archive", str(tmp_path / "clips.npz"), "--config", str(config)],
    }[command]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert f"Config field {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("train", '{"beta1": 1.0}', "beta1 must be in [0, 1), got 1.0"),
        ("synth", '{"background_cars": [5, 2]}', "background_cars must satisfy lo <= hi, got (5, 2)"),
        ("synth", '{"highway_fraction": 2.0}', "highway_fraction must be in [0, 1], got 2.0"),
        # A hi above int64's maximum is one the generator's `rng.integers(lo, hi + 1)` cannot draw to.
        ("synth", '{"segment_frames": [3, 100000000000000000000]}', f"segment_frames must be in [3, {2**63 - 1}]"),
        ("synth", '{"background_cars": [0, 100000000000000000000]}', f"background_cars must be in [0, {2**63 - 1}]"),
    ],
)
def test_out_of_range_config_field_is_config_error(tmp_path, capsys, command, payload, named):
    config = tmp_path / "config.json"
    config.write_text(payload)
    args = {
        "synth": ["synth", "--config", str(config)],
        "train": ["train", "--archive", str(tmp_path / "clips.npz"), "--config", str(config)],
    }[command]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {command.capitalize()}Config field {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, kind",
    [
        (["synth", "--config", "{config}"], "synth config"),
        (["train", "--archive", "{config}", "--config", "{config}"], "train config"),
        (["pipeline", "--train-config", "{config}"], "train config"),
        (["pipeline", "--synth-config", "{config}"], "synth config"),
    ],
)
@pytest.mark.parametrize(
    "content, named",
    [(b'{"seed": 1,\n', "{kind} {config} is not JSON: "), (b'{"seed": 1}\xff', "cannot read {kind} {config}: ")],
    ids=["truncated", "not-utf8"],
)
def test_config_file_not_json_is_config_error(tmp_path, capsys, args, kind, content, named):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main([arg.format(config=config) for arg in args] + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {named.format(kind=kind, config=config)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def trained(logs_dir, tmp_path_factory):
    """An archive under data/ and a 2-epoch `base` model trained on it under model/."""
    root = tmp_path_factory.mktemp("trained")
    assert main(
        [
            "prepare", "--logs", str(logs_dir), "--out", str(root / "data"),
            "--T", "4", "--quota", "3,2,1", "--seed", "0",
        ]
    ) == 0
    assert main(
        [
            "train", "--archive", str(root / "data" / "clips.npz"),
            "--out", str(root / "model"), "--variant", "base",
            "--batch-size", "128", "--max-epochs", "2", "--seed", "0", "--quiet",
        ]
    ) == 0
    return root


class TestTrainEvalCommands:
    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_non_object_train_config_is_config_error(self, tmp_path, capsys, command):
        config = tmp_path / "train.json"
        config.write_text("[1]")
        args = {
            "train": ["train", "--archive", str(tmp_path / "clips.npz"), "--config", str(config)],
            "pipeline": ["pipeline", "--train-config", str(config)],
        }[command]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_unknown_train_config_key_is_config_error(self, tmp_path, capsys, command):
        config = tmp_path / "train.json"
        config.write_text('{"bogus": 1, "batch_size": 8}')
        args = {
            "train": ["train", "--archive", str(tmp_path / "clips.npz"), "--config", str(config)],
            "pipeline": ["pipeline", "--train-config", str(config)],
        }[command]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown train config fields in" in err and "['bogus']" in err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_with_fractional_quota_is_data_error(self, trained, tmp_path, capsys):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["config"] = np.array(json.dumps(json.loads(str(arrays["config"])) | {"quota": [3.5, 2, 1]}))
        np.savez(tmp_path / "checkpoint.npz", **arrays)
        archive = trained / "data" / "clips.npz"
        assert main(["eval", "--archive", str(archive), "--checkpoint", str(tmp_path / "checkpoint.npz")]) == 3
        assert "CategoryQuota field n_car must be an integer, got 3.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [{"K": 10**9}, {"graph_widths": [10**12, 32]}, {"K": 10**20}],
        ids=["K-1e9", "graph-width-1e12", "K-1e20"],
    )
    def test_checkpoint_config_larger_than_its_tensors_is_data_error(self, trained, tmp_path, capsys, change):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["config"] = np.array(json.dumps(json.loads(str(arrays["config"])) | change))
        checkpoint = tmp_path / "checkpoint.npz"
        np.savez(checkpoint, **arrays)
        assert main(["eval", "--archive", str(trained / "data" / "clips.npz"), "--checkpoint", str(checkpoint)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {checkpoint}: its model config describes more weights than it stores\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_numeric_fault_is_located_in_train_report(self, trained, tmp_path):
        """A step size of 1e300 overflows the weights after the first step, so the second batch faults."""
        rc = main(
            [
                "train", "--archive", str(trained / "data" / "clips.npz"), "--out", str(tmp_path),
                "--variant", "base", "--batch-size", "32", "--step-size", "1e300", "--quiet",
            ]
        )
        assert rc == 4
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["aborted"] and report["stop_epoch"] == 1
        fault = report["fault"]
        assert (fault["epoch"], fault["batch"]) == (1, 1)
        assert fault["tensor"].startswith("classifier.")
        assert fault["message"] == f"non-finite gradient in {fault['tensor']}"

    def test_variant_spelling_does_not_change_checkpoint(self, trained, tmp_path):
        """Seeds derive from the canonical variant name, so `Full` trains the model `full` does."""
        for spelling in ("Full", "full"):
            assert main(
                [
                    "train", "--archive", str(trained / "data" / "clips.npz"), "--out", str(tmp_path / spelling),
                    "--variant", spelling, "--batch-size", "128", "--max-epochs", "1", "--quiet",
                ]
            ) == 0
            manifest = json.loads((tmp_path / spelling / "run_manifest.json").read_text())
            assert manifest["config"]["variant"] == "full"
        assert sha256(tmp_path / "Full" / "checkpoint.npz") == sha256(tmp_path / "full" / "checkpoint.npz")

    def test_model_too_large_to_allocate_is_config_error(self, trained, tmp_path, capsys):
        args = ["train", "--archive", str(trained / "data" / "clips.npz"), "--out", str(tmp_path / "out")]
        assert main(args + ["--variant", "base", "--K", str(10**20)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: variant base with K={10**20} is too large to allocate: ")

    def test_train_artifacts(self, trained):
        assert (trained / "model" / "checkpoint.npz").exists()
        report = json.loads((trained / "model" / "train_report.json").read_text())
        assert report["stop_epoch"] == 2
        assert not report["aborted"] and report["fault"] is None
        lines = (trained / "model" / "train_metrics.csv").read_text().splitlines()
        assert lines[0] == "variant,T,FT,K,seed,epoch,train_loss,val_loss,seconds"
        assert [line.split(",")[:6] for line in lines[1:]] == [["base", "4", "1", "1", "0", str(e)] for e in (1, 2)]
        # Losses are written at full precision: the best epoch's row holds the report's float exactly.
        assert float(lines[report["best_epoch"]].split(",")[7]) == report["best_val_loss"]

    def test_manifest_records_train_config_without_seed(self, trained):
        """Every seed of a run derives from --seed, so the train config's `seed` is recorded as null."""
        manifest = json.loads((trained / "model" / "run_manifest.json").read_text())
        assert manifest["master_seed"] == 0
        train = manifest["config"]["train"]
        assert (train["batch_size"], train["max_epochs"], train["seed"]) == (128, 2, None)

    def test_eval_prints_metrics(self, trained, capsys):
        rc = main(
            [
                "eval", "--archive", str(trained / "data" / "clips.npz"),
                "--checkpoint", str(trained / "model" / "checkpoint.npz"),
                "--split", "test",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "us/clip" in out

    def test_eval_train_split_scores_each_distinct_clip_once(self, trained, capsys):
        """The training split repeats clips to balance classes; `eval` scores the distinct ones."""
        archive = trained / "data" / "clips.npz"
        train_idx = ClipDataset.load(archive).train_idx
        distinct = len(np.unique(train_idx))
        assert distinct < len(train_idx)
        checkpoint = trained / "model" / "checkpoint.npz"
        assert main(["eval", "--archive", str(archive), "--checkpoint", str(checkpoint), "--split", "train"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(f" us/clip over {distinct} clips")

    def test_eval_scores_and_times_with_one_evaluate(self, trained, monkeypatch, capsys):
        """The printed metrics and time come from one `evaluate`, whose predict passes are the only ones."""
        reports, passes = [], []
        real_evaluate, real_predict = evaluation.evaluate, evaluation.predict

        def evaluate_spy(*args):
            reports.append(real_evaluate(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "evaluate", evaluate_spy)
        monkeypatch.setattr(evaluation, "predict", lambda *args, **kwargs: passes.append(1) or real_predict(*args, **kwargs))
        archive, checkpoint = trained / "data" / "clips.npz", trained / "model" / "checkpoint.npz"
        assert main(["eval", "--archive", str(archive), "--checkpoint", str(checkpoint)]) == 0
        assert len(reports) == 1 and len(passes) == evaluation.INFERENCE_REPEATS
        out = capsys.readouterr().out
        assert f"accuracy: {reports[0].accuracy:.2f}" in out
        assert f"inference: {reports[0].per_clip_us:.1f} us/clip" in out

    @pytest.mark.parametrize(
        "flags,given",
        [
            (["--FT", "2"], "T=4 FT=2 quota=3,2,1"),
            (["--quota", "2,3,1"], "T=4 FT=1 quota=2,3,1"),  # the same slot total
            (["--T", "5"], "T=5 FT=1 quota=3,2,1"),
        ],
        ids=["FT", "quota", "T"],
    )
    def test_eval_on_clips_of_other_settings_is_record_error(self, trained, logs_dir, tmp_path, capsys, flags, given):
        """`eval` refuses an archive whose T, FT or quota differ from the checkpoint's before it predicts."""
        prepare = ["prepare", "--logs", str(logs_dir), "--out", str(tmp_path), "--T", "4", "--quota", "3,2,1"]
        assert main([*prepare, *flags]) == 0
        capsys.readouterr()
        checkpoint = trained / "model" / "checkpoint.npz"
        assert main(["eval", "--archive", str(tmp_path / "clips.npz"), "--checkpoint", str(checkpoint)]) == 3
        captured = capsys.readouterr()
        assert f"error: checkpoint {checkpoint} was trained on clips of T=4 FT=1 quota=3,2,1, but " in captured.err
        assert f"holds clips of {given}" in captured.err
        assert "accuracy:" not in captured.out

    def test_eval_checkpoint_missing_tensor_is_record_error(self, trained, tmp_path, capsys):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            payload = {k: data[k] for k in data.files if k != "classifier.b1"}
        np.savez(tmp_path / "checkpoint.npz", **payload)
        rc = main(
            [
                "eval", "--archive", str(trained / "data" / "clips.npz"),
                "--checkpoint", str(tmp_path / "checkpoint.npz"), "--split", "test",
            ]
        )
        assert rc == 3
        assert "classifier.b1" in capsys.readouterr().err

    def test_eval_checkpoint_config_without_field_is_record_error(self, trained, tmp_path, capsys):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            payload = {k: data[k] for k in data.files}
        config = json.loads(str(payload["config"]))
        del config["T"]
        payload["config"] = np.array(json.dumps(config))
        np.savez(tmp_path / "checkpoint.npz", **payload)
        rc = main(
            [
                "eval", "--archive", str(trained / "data" / "clips.npz"),
                "--checkpoint", str(tmp_path / "checkpoint.npz"), "--split", "test",
            ]
        )
        assert rc == 3
        assert "lacks ['T']" in capsys.readouterr().err

    def test_eval_checkpoint_config_with_unknown_key_is_record_error(self, trained, tmp_path, capsys):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            payload = {k: data[k] for k in data.files}
        payload["config"] = np.array(json.dumps(json.loads(str(payload["config"])) | {"dropout": 0.5}))
        np.savez(tmp_path / "checkpoint.npz", **payload)
        archive = trained / "data" / "clips.npz"
        assert main(["eval", "--archive", str(archive), "--checkpoint", str(tmp_path / "checkpoint.npz")]) == 3
        assert "model config has unknown fields ['dropout']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: np.put(d["classifier.b_out"], 0, np.nan), "classifier.b_out: holds a non-finite value"),
            (
                lambda d: d.update({k: v.astype(np.float32) for k, v in d.items() if v.dtype == np.float64}),
                "stored float32",
            ),
        ],
        ids=["nan-weight", "float32-tensors"],
    )
    def test_eval_checkpoint_tensor_not_finite_float64_is_record_error(self, trained, tmp_path, capsys, edit, named):
        with np.load(trained / "model" / "checkpoint.npz") as data:
            payload = {k: data[k] for k in data.files}
        edit(payload)
        np.savez(tmp_path / "checkpoint.npz", **payload)
        archive = trained / "data" / "clips.npz"
        assert main(["eval", "--archive", str(archive), "--checkpoint", str(tmp_path / "checkpoint.npz")]) == 3
        assert named in capsys.readouterr().err

    def test_eval_non_archive_checkpoint_is_record_error(self, trained, tmp_path, capsys):
        (tmp_path / "checkpoint.npz").write_text("not an archive")
        rc = main(
            [
                "eval", "--archive", str(trained / "data" / "clips.npz"),
                "--checkpoint", str(tmp_path / "checkpoint.npz"), "--split", "test",
            ]
        )
        assert rc == 3
        assert "not a checkpoint archive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "ablate", "pipeline"])
def test_out_that_cannot_be_a_directory_fails_before_any_training(
    trained, logs_dir, tmp_path, capsys, monkeypatch, command
):
    """An --out below a regular file is a config error naming --out and the path, raised before training starts."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    trained_models = []
    monkeypatch.setattr(train_module, "train", lambda *args: trained_models.append(args))
    args = {
        "synth": ["synth"],
        "prepare": ["prepare", "--logs", str(logs_dir)],
        "train": ["train", "--archive", str(trained / "data" / "clips.npz"), "--variant", "base"],
        "ablate": ["ablate", "--logs", str(logs_dir), "--T", "4", "--quota", "3,2,1", "--variant", "base"],
        "pipeline": ["pipeline"],
    }[command]
    assert main(args + ["--out", str(out)]) == 2
    assert f"error: cannot create --out directory {out}" in capsys.readouterr().err
    assert trained_models == []


@pytest.mark.parametrize(
    "command,artifact",
    [
        ("synth", "detections.jsonl"),
        ("synth", "sensors.jsonl"),
        ("synth", "run_manifest.json"),
        ("prepare", "clips.npz"),
        ("train", "checkpoint.npz"),
        ("train", "train_report.json"),
        ("train", "train_metrics.csv"),
        ("ablate", "results.csv"),
        ("ablate", "loss_curves.csv"),
    ],
)
def test_artifact_that_cannot_be_written_is_config_error(trained, logs_dir, tmp_path, capsys, command, artifact):
    """A directory where a command writes a file is a config error naming that file."""
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    args = {
        "synth": ["synth"],
        "prepare": ["prepare", "--logs", str(logs_dir), "--T", "4", "--quota", "3,2,1"],
        "train": ["train", "--archive", str(trained / "data" / "clips.npz"), "--variant", "base", "--quiet"],
        "ablate": ["ablate", "--logs", str(logs_dir), "--T", "4", "--quota", "3,2,1", "--variant", "base"],
    }[command]
    epochs = ["--max-epochs", "1"] if command in ("train", "ablate") else []
    assert main(args + epochs + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / artifact}: Is a directory\n"


model_config_errors = pytest.mark.parametrize(
    "flags,named",
    [(["--K", "-1"], "ModelConfig field K"), (["--variant", "nope"], "unknown variant 'nope'")],
    ids=["K", "variant"],
)


@model_config_errors
def test_train_config_error_leaves_no_out_directory(trained, tmp_path, capsys, flags, named):
    """A ModelConfig error exits 2 before --out is created."""
    out = tmp_path / "y"
    assert main(["train", "--archive", str(trained / "data" / "clips.npz"), "--out", str(out), *flags]) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


@model_config_errors
def test_pipeline_config_error_fails_before_synth(tmp_path, capsys, flags, named):
    """`pipeline` checks its model flags before it generates logs or builds clips."""
    out = tmp_path / "pk"
    assert main(["pipeline", "--out", str(out), *flags]) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def gradcheck_seed0():
    """The exit code and printed output of one `gradcheck --seed 0`."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        rc = main(["gradcheck", "--seed", "0"])
    return rc, printed.getvalue()


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, gradcheck_seed0):
        rc, out = gradcheck_seed0
        assert rc == 0
        assert "gradient check passed" in out

    def test_impossible_tolerance_exits_five(self):
        assert main(["gradcheck", "--seed", "0", "--tolerance=-1"]) == 5

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_config_error(self, capsys, value):
        assert main(["gradcheck", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert f"error: --tolerance must be a finite number, got {value}" in captured.err
        assert "passed" not in captured.out

    def test_reports_a_nonzero_normwise_error_per_tensor(self, gradcheck_seed0):
        rc, out = gradcheck_seed0
        assert rc == 0
        rows = [line.split() for line in out.splitlines() if line.startswith("  ")]
        assert len(rows) == 30  # every tensor of the gradcheck model
        for name, worst, normwise in rows:
            assert 0.0 < float(normwise) < 1e-4, name

    def test_summary_shows_the_largest_normwise_error(self, gradcheck_seed0):
        """The gate reads 0 when every coordinate is under the floor; the summary still shows the margin."""
        _, out = gradcheck_seed0
        rows = [line.split() for line in out.splitlines() if line.startswith("  ")]
        summary = re.fullmatch(
            r"max relative error (\S+) \(tolerance 1\.0e-04\), largest norm-wise error (\S+)",
            out.splitlines()[-2],
        )
        assert summary and float(summary[1]) == max(float(worst) for _, worst, _ in rows)
        assert summary[2] == max((normwise for _, _, normwise in rows), key=float)

    def test_halved_lstm_bias_gradient_fails(self, monkeypatch, capsys):
        real = train_module.loss_and_grads

        def halved(*args, **kwargs):
            loss, grads, _ = real(*args, **kwargs)
            grads["lstm.car.0.bias"] = grads["lstm.car.0.bias"] * 0.5
            return loss, grads, None

        monkeypatch.setattr(train_module, "loss_and_grads", halved)
        assert main(["gradcheck", "--seed", "0"]) == 5
        assert "lstm.car.0.bias: 5.000e-01  5.000e-01" in capsys.readouterr().out


@pytest.fixture(scope="module")
def ablated(logs_dir, tmp_path_factory):
    """A 1-epoch sweep of two variants, with a train config file that sets patience."""
    out = tmp_path_factory.mktemp("ablated")
    config = out / "train.json"
    config.write_text('{"patience": 7}')
    rc = main(
        [
            "ablate", "--logs", str(logs_dir), "--out", str(out),
            "--T", "4", "--variant", "base", "base_single",
            "--quota", "3,2,1", "--max-epochs", "1", "--batch-size", "128",
            "--seed", "0", "--config", str(config),
        ]
    )
    assert rc == 0
    return out


def test_tables_use_lf_line_endings(trained, ablated):
    tables = [trained / "model" / "train_metrics.csv", ablated / "results.csv", ablated / "loss_curves.csv"]
    for table in tables:
        assert b"\r" not in table.read_bytes(), table


class TestAblateCommand:
    def test_small_sweep_writes_tables(self, ablated):
        lines = (ablated / "results.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (ablated / "loss_curves.csv").exists()

    def test_manifest_records_sweep_and_train_config(self, ablated):
        manifest = json.loads((ablated / "run_manifest.json").read_text())
        sweep, train = manifest["config"]["sweep"], manifest["config"]["train"]
        assert (sweep["T_set"], sweep["FT_set"], sweep["K_set"]) == ([4], [1], [1])
        assert sweep["variants"] == ["base", "base_single"]
        assert sweep["quotas"] == [{"n_car": 3, "n_pedestrian": 2, "n_traffic": 1}]
        assert sweep["seeds"] == [0]
        assert (train["batch_size"], train["max_epochs"], train["patience"]) == (128, 1, 7)
        assert train["step_size"] == 0.001 and train["seed"] is None  # every cell derives its own from --seed

    @pytest.mark.parametrize("command", ["train", "pipeline", "ablate"])
    def test_config_that_sets_seed_is_config_error(self, trained, logs_dir, tmp_path, capsys, command):
        """`--seed` is the one seed of every trained run, so no command takes a train config `seed`."""
        config = tmp_path / "train.json"
        config.write_text('{"seed": 5}')
        args = {
            "train": ["train", "--archive", str(trained / "data" / "clips.npz"), "--config", str(config)],
            "pipeline": ["pipeline", "--train-config", str(config)],
            "ablate": ["ablate", "--logs", str(logs_dir), "--config", str(config)],
        }[command]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: train config {config} sets seed; every seed derives from --seed\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--K=-1", "--T=0", "--FT=0", f"--T={10**20}", f"--FT={10**20}"])
    def test_sweep_value_outside_model_range_fails_before_out(self, logs_dir, tmp_path, capsys, flag):
        """A sweep value ModelConfig rejects exits 2 and writes nothing, not a table of failed cells."""
        out = tmp_path / "out"
        assert main(["ablate", "--logs", str(logs_dir), "--out", str(out), "--variant", "base", flag]) == 2
        name, value = flag[2:].split("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: ModelConfig field {name} must be ") and err.endswith(f", got {value}\n")
        assert not out.exists()

    def test_cell_too_large_to_allocate_fails_as_a_row(self, logs_dir, tmp_path, capsys):
        """The sweep goes on past a model numpy refuses to shape and writes its table."""
        out = tmp_path / "out"
        rc = main(
            [
                "ablate", "--logs", str(logs_dir), "--out", str(out), "--variant", "base",
                "--K", "1", str(10**20), "--T", "4", "--quota", "3,2,1", "--max-epochs", "1",
            ]
        )
        assert rc == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("base,4,1,1,") and not rows[0].endswith(",,,,,,")
        assert rows[1] == f"base,4,1,{10**20},3,2,1,0,,,,,,"
        err = capsys.readouterr().err
        assert f"failed base T=4 FT=1 K={10**20}: InvalidConfigError: variant base with K={10**20} is too large" in err

    def test_session_without_sensor_rows_is_data_error(self, unpaired_logs_dir, tmp_path, capsys):
        rc = main(
            [
                "ablate", "--logs", str(unpaired_logs_dir), "--out", str(tmp_path / "out"),
                "--T", "4", "--variant", "base", "--quota", "3,2,1", "--max-epochs", "1",
            ]
        )
        assert rc == 3
        assert "s000" in capsys.readouterr().err


# The settings an ablate row shares with the `prepare` + `train` + `eval` run it reproduces.
E2E_SETTINGS = ["--T", "4", "--quota", "3,2,1", "--batch-size", "128", "--max-epochs", "3"]


@pytest.fixture(scope="module")
def separate_runs(logs_dir, tmp_path_factory):
    """`prepare` + `train` + `eval` per (seed, variant): eval's printed recalls and accuracy, and the
    first 8 columns of each train_metrics.csv row (all but the seconds)."""
    runs = {}
    for seed, variant in [(0, "full"), (0, "base"), (1, "full")]:
        root = tmp_path_factory.mktemp(f"run_{seed}_{variant}")
        archive, model = root / "clips.npz", root / "model"
        clip_flags = E2E_SETTINGS[:4]
        assert main(["prepare", "--logs", str(logs_dir), "--out", str(root), *clip_flags, "--seed", str(seed)]) == 0
        train_flags = ["--variant", variant, "--K", "2", *E2E_SETTINGS[4:], "--seed", str(seed), "--quiet"]
        assert main(["train", "--archive", str(archive), "--out", str(model), *train_flags]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main(["eval", "--archive", str(archive), "--checkpoint", str(model / "checkpoint.npz")]) == 0
        lines = printed.getvalue().splitlines()
        shown = [line.split(": ")[1] for line in lines if line.startswith(("recall", "accuracy"))]
        epochs = [line.split(",")[:8] for line in (model / "train_metrics.csv").read_text().splitlines()[1:]]
        runs[seed, variant] = (["" if x == "undefined" else x for x in shown], epochs)
    return runs


def scores(row: str) -> list[str]:
    """The recall and accuracy cells of a results.csv row."""
    return row.split(",")[8:13]


class TestAblateRowIsPrepareTrainEval:
    def test_rows_match_the_commands_at_the_same_seed(self, logs_dir, separate_runs, tmp_path):
        args = ["ablate", "--logs", str(logs_dir), "--out", str(tmp_path), "--variant", "full", "base", "--K", "2"]
        assert main([*args, *E2E_SETTINGS, "--seed", "0"]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        curves = (tmp_path / "loss_curves.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for variant, row in zip(["full", "base"], rows):
            shown, epochs = separate_runs[0, variant]
            assert row.startswith(f"{variant},4,1,2,3,2,1,0,") and scores(row) == shown
            # Both tables come from one writer: all but the seconds column match to the last digit.
            assert [line.split(",")[:8] for line in curves if line.startswith(f"{variant},")] == epochs

    def test_each_seed_of_a_sweep_matches_its_own_run(self, logs_dir, separate_runs):
        spec = SweepSpec(T_set=(4,), K_set=(2,), variants=("full",), quotas=(CategoryQuota(3, 2, 1),), seeds=(0, 1))
        results = run_ablation(load_sessions(logs_dir), spec, TrainConfig(batch_size=128, max_epochs=3))
        assert [cell.seed for cell in results] == [0, 1]
        for cell in results:
            assert cell.error is None
            assert scores(cell.csv_row()) == separate_runs[cell.seed, "full"][0]
