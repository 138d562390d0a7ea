"""Command-line interface: artifacts, manifests, exit codes."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from speedcast import train as train_module
from speedcast.cli import main
from speedcast.ingest import ClipDataset


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

    def test_session_without_sensor_rows_is_data_error(self, unpaired_logs_dir, tmp_path, capsys):
        rc = main(["prepare", "--logs", str(unpaired_logs_dir), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "s000" in capsys.readouterr().err

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
        ("synth", '{"background_cars": [5, 2]}', "background_cars must satisfy 0 <= lo <= hi, got (5, 2)"),
        ("synth", '{"highway_fraction": 2.0}', "highway_fraction must be in [0, 1], got 2.0"),
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
    assert f"error: {named}" in capsys.readouterr().err
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
def test_config_file_not_json_is_config_error(tmp_path, capsys, args, kind):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1,\n')
    assert main([arg.format(config=config) for arg in args] + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {kind} {config} is not JSON: " in capsys.readouterr().err
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

    def test_train_artifacts(self, trained):
        assert (trained / "model" / "checkpoint.npz").exists()
        report = json.loads((trained / "model" / "train_report.json").read_text())
        assert report["stop_epoch"] == 2
        assert not report["aborted"] and report["fault"] is None
        lines = (trained / "model" / "train_metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 3

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


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert "gradient check passed" in capsys.readouterr().out

    def test_impossible_tolerance_exits_five(self):
        assert main(["gradcheck", "--seed", "0", "--tolerance=-1"]) == 5

    def test_reports_a_nonzero_normwise_error_per_tensor(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
        assert len(rows) == 30  # every tensor of the gradcheck model
        for name, worst, normwise in rows:
            assert 0.0 < float(normwise) < 1e-4, name

    def test_halved_lstm_bias_gradient_fails(self, monkeypatch, capsys):
        real = train_module.loss_and_grads

        def halved(*args, **kwargs):
            loss, grads, dfeatures = real(*args, **kwargs)
            grads["lstm.car.0.bias"] = grads["lstm.car.0.bias"] * 0.5
            return loss, grads, dfeatures

        monkeypatch.setattr(train_module, "loss_and_grads", halved)
        assert main(["gradcheck", "--seed", "0"]) == 5
        assert "lstm.car.0.bias: 5.000e-01  5.000e-01" in capsys.readouterr().out


class TestAblateCommand:
    def test_small_sweep_writes_tables(self, logs_dir, tmp_path):
        rc = main(
            [
                "ablate", "--logs", str(logs_dir), "--out", str(tmp_path),
                "--T", "4", "--variant", "base", "base_single",
                "--quota", "3,2,1", "--max-epochs", "1", "--batch-size", "128",
                "--seed", "0",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "loss_curves.csv").exists()

    def test_session_without_sensor_rows_is_data_error(self, unpaired_logs_dir, tmp_path, capsys):
        rc = main(
            [
                "ablate", "--logs", str(unpaired_logs_dir), "--out", str(tmp_path / "out"),
                "--T", "4", "--variant", "base", "--quota", "3,2,1", "--max-epochs", "1",
            ]
        )
        assert rc == 3
        assert "s000" in capsys.readouterr().err
