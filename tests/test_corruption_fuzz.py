"""Corrupt and ill-typed inputs fail with a documented exit code and an `error:` line, never a traceback.

Byte-level damage to an archive, checkpoint or log loads, or fails as a data error (exit 3). Typed
mutations of the arrays, log records and config files, and oversized clip settings, run through
`cli.main`: each exits 0, 2 or 3 with stderr starting `error: `, and no exception escapes.
"""
import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.cli import main
from speedcast.errors import SpeedcastError
from speedcast.ingest import ClipDataset, build_dataset, load_sessions, read_detection_log, read_sensor_log
from speedcast.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from speedcast.synth import SynthConfig, generate, write_logs
from speedcast.train import TrainConfig
from speedcast.types import CategoryQuota

QUOTA = CategoryQuota(2, 1, 1)
LOADERS = {
    "clips.npz": ClipDataset.load,
    "checkpoint.npz": load_checkpoint,
    "detections.jsonl": read_detection_log,
    "sensors.jsonl": read_sensor_log,
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Directory holding two short logs, the clip archive built from them and a checkpoint for its clips."""
    root = tmp_path_factory.mktemp("pristine")
    write_logs(generate(SynthConfig(sessions=3, frames_per_session=40, seed=1)), root)
    build_dataset(load_sessions(root), T=3, FT=1, quota=QUOTA, seed=0).save(root / "clips.npz")
    config = ModelConfig(T=3, FT=1, K=1, quota=QUOTA, graph_widths=(4,), lstm_hidden=4, mlp_widths=(4, 4))
    save_checkpoint(init_params(config, seed=0), root / "checkpoint.npz")
    return root


def damage(blob: bytes, offset: int, mask: int) -> bytes:
    """`blob` with its byte at `offset` XORed with `mask`, or cut before that byte when `mask` is 0."""
    if mask == 0:
        return blob[:offset]
    return blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1 :]


@pytest.fixture(scope="module")
def damaged_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), where=st.floats(0, 1, exclude_max=True), mask=st.integers(0, 255))
def test_damaged_artifact_loads_or_is_a_data_error(pristine, damaged_dir, name, where, mask):
    blob = (pristine / name).read_bytes()
    path = damaged_dir / name
    path.write_bytes(damage(blob, int(where * len(blob)), mask))
    try:
        LOADERS[name](path)
    except SpeedcastError as exc:
        assert exc.exit_code == 3, exc


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_damaged_artifact_fails_its_command_with_exit_3(pristine, tmp_path, capsys, name):
    """One flipped byte mid-file: a CRC or zlib failure in a `.npz`, a byte that is not UTF-8 in a log."""
    for other in LOADERS:
        (tmp_path / other).write_bytes((pristine / other).read_bytes())
    blob = (pristine / name).read_bytes()
    if name.endswith(".jsonl"):
        start = blob.index(b"\n") + 1  # the first byte of line 2
        (tmp_path / name).write_bytes(damage(blob, start, blob[start] ^ 0xFF))
        command = ["prepare", "--logs", str(tmp_path), "--out", str(tmp_path / "out"), "--T", "3", "--quota", "2,1,1"]
    else:
        (tmp_path / name).write_bytes(damage(blob, len(blob) // 2, 0x55))
        command = ["eval", "--archive", str(tmp_path / "clips.npz"), "--checkpoint", str(tmp_path / "checkpoint.npz")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command) == 3
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# Typed mutations through `cli.main`
# ---------------------------------------------------------------------------


def run(args: list[str]) -> tuple[int, str]:
    """`main(args)`'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, err.getvalue()


def assert_documented(rc: int, err: str) -> None:
    """Success, or a config or data error whose stderr starts with `error: `."""
    assert rc in (0, 2, 3), (rc, err)
    assert err.startswith("error: ") if rc else not err.startswith("error: "), (rc, err)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A fresh directory per Hypothesis example, under one module-wide root."""
    root = tmp_path_factory.mktemp("typed")

    @contextlib.contextmanager
    def fresh():
        path = Path(tempfile.mkdtemp(dir=root))
        try:
            yield path
        finally:
            shutil.rmtree(path)

    return fresh


FLIPPED_DTYPE = {"f": np.float32, "i": np.float64, "u": np.float64, "b": np.int8, "U": "S"}
ARRAY_MUTATIONS = {
    "flipped-dtype": lambda a, i: a.astype(FLIPPED_DTYPE[a.dtype.kind]),
    "extra-axis": lambda a, i: a[None],
    "flattened": lambda a, i: a.reshape(-1) if a.ndim != 1 else a[:, None],
    "nan": lambda a, i: np.where(np.arange(a.size).reshape(a.shape) == i, np.nan, a.astype(np.float64)),
    "zero-length": lambda a, i: a[:0] if a.ndim else np.empty(0, a.dtype),
    "object": lambda a, i: a.astype(object),
}


def array_cases(pristine_dir: Path) -> list[tuple[str, str, str]]:
    """(archive, array, mutation) for every array of both archives and every mutation that applies to it."""
    cases = []
    for archive in ("clips.npz", "checkpoint.npz"):
        with np.load(pristine_dir / archive) as data:
            for key in data.files:
                for mutation in ARRAY_MUTATIONS:
                    if not (mutation == "nan" and data[key].dtype.kind == "U"):
                        cases.append((archive, key, mutation))
    return cases


@pytest.mark.filterwarnings("ignore:class . absent from evaluation set")  # the tiny test split lacks a class
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_typed_array_mutation_exits_with_a_documented_code(pristine, scratch, data):
    """`eval` reads both archives, `train` the clips; a mutated array loads and runs, or is exit 2 or 3."""
    archive, key, mutation = data.draw(st.sampled_from(array_cases(pristine)))
    with np.load(pristine / archive) as stored:
        arrays = {k: stored[k] for k in stored.files}
    arrays[key] = ARRAY_MUTATIONS[mutation](arrays[key], data.draw(st.integers(0, max(0, arrays[key].size - 1))))
    with scratch() as work:
        for name in ("clips.npz", "checkpoint.npz"):
            shutil.copy(pristine / name, work / name)
        np.savez(work / archive, **arrays)
        command = data.draw(st.sampled_from(["eval", "train"] if archive == "clips.npz" else ["eval"]))
        args = {
            "eval": ["eval", "--archive", str(work / "clips.npz"), "--checkpoint", str(work / "checkpoint.npz")],
            "train": [
                "train", "--archive", str(work / "clips.npz"), "--out", str(work / "out"), "--variant", "base",
                "--max-epochs", "1", "--batch-size", "64", "--quiet",
            ],
        }[command]
        assert_documented(*run(args))


NOT_AN_OBJECT = ["[1, 2]", '"text"', "3", "null"]
NOT_AN_INTEGER = ["1", 1.5, True, None]
NOT_A_NUMBER = ["1", True, None, math.nan]
LOG_FIELDS = {
    "detections.jsonl": {"frame_index": NOT_AN_INTEGER, "width": NOT_AN_INTEGER, "timestamp": NOT_A_NUMBER},
    "sensors.jsonl": {"frame_index": NOT_AN_INTEGER, "brake_kpa": NOT_A_NUMBER, "steer_deg": NOT_A_NUMBER},
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_typed_log_mutation_is_a_data_error_naming_the_line(pristine, scratch, data):
    """`prepare` on logs with one line that is not a JSON object, or one field of another JSON type."""
    log = data.draw(st.sampled_from(sorted(LOG_FIELDS)))
    lines = (pristine / log).read_text().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    key = data.draw(st.sampled_from([None, *sorted(LOG_FIELDS[log])]))
    if key is None:
        lines[at] = data.draw(st.sampled_from(NOT_AN_OBJECT))
    else:
        record = json.loads(lines[at])
        record[key] = data.draw(st.sampled_from(LOG_FIELDS[log][key]))
        lines[at] = json.dumps(record)
    with scratch() as work:
        for name in LOG_FIELDS:
            shutil.copy(pristine / name, work / name)
        (work / log).write_text("\n".join(lines) + "\n")
        rc, err = run(["prepare", "--logs", str(work), "--out", str(work / "out"), "--T", "3", "--quota", "2,1,1"])
    assert (rc, err.split(":")[0]) == (3, "error"), err
    assert f"{work / log}:{at + 1}: malformed" in err


def ill_typed_values(default: object) -> list[object]:
    """JSON values of another type than a config field with `default` takes."""
    if isinstance(default, bool):
        return ["true", 1, None]
    if isinstance(default, int):
        return NOT_AN_INTEGER
    if isinstance(default, float):
        return ["1", True, None]
    return ["1", 1.5, None, [1, "2"], [1, 2.5]]  # a pair of integers


CONFIG_FIELDS = {
    kind: [f for f in dataclasses.fields(cls) if f.name != "seed"]
    for kind, cls in (("synth", SynthConfig), ("train", TrainConfig))
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_typed_config_mutation_is_a_config_error(pristine, scratch, data):
    """A config file that is not a JSON object, a field of another JSON type, or an oversized synth
    size: exit 2 naming the file or the field, and no --out."""
    kind = data.draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    field = data.draw(st.sampled_from([None, *CONFIG_FIELDS[kind]]))
    base = {"sessions": 2, "frames_per_session": 20} if kind == "synth" else {"max_epochs": 1}
    if field is None:
        payload, named = data.draw(st.sampled_from(NOT_AN_OBJECT)), "is not a JSON object"
    else:
        default = field.default_factory() if field.default is dataclasses.MISSING else field.default
        payload = json.dumps(base | {field.name: data.draw(st.sampled_from(ill_typed_values(default)))})
        named = f"{kind.capitalize()}Config field {field.name} must be"
    with scratch() as work:
        config, out = work / "config.json", work / "out"
        config.write_text(payload)
        args = {
            "synth": ["synth", "--config", str(config)],
            "train": ["train", "--archive", str(pristine / "clips.npz"), "--config", str(config)],
        }[kind]
        rc, err = run(args + ["--out", str(out)])
        assert (rc, err.startswith("error: "), named in err, out.exists()) == (2, True, True, False), err


OVERSIZED = str(10**20)


@pytest.mark.parametrize(
    "args, named",
    [
        (["prepare", "--logs", "{logs}", "--T", OVERSIZED], "history length T"),
        (["prepare", "--logs", "{logs}", "--FT", OVERSIZED], "future offset FT"),
        (["prepare", "--logs", "{logs}", "--quota", f"{OVERSIZED},1,1"], "--quota"),
        (["ablate", "--logs", "{logs}", "--T", OVERSIZED], "ModelConfig field T"),
        (["ablate", "--logs", "{logs}", "--FT", OVERSIZED], "ModelConfig field FT"),
        (["pipeline", "--T", OVERSIZED], "ModelConfig field T"),
        (["pipeline", "--FT", OVERSIZED], "ModelConfig field FT"),
        (["synth", "--config", '{{"frames_per_session": {big}}}'], "SynthConfig field frames_per_session"),
        (["pipeline", "--synth-config", '{{"frames_per_session": {big}}}'], "SynthConfig field frames_per_session"),
        (["synth", "--config", '{{"bbox_jitter_px": 1e308}}'], "SynthConfig field bbox_jitter_px"),
        (["pipeline", "--synth-config", '{{"bbox_jitter_px": 1e308}}'], "SynthConfig field bbox_jitter_px"),
    ],
    ids=[
        "prepare-T", "prepare-FT", "prepare-quota", "ablate-T", "ablate-FT", "pipeline-T", "pipeline-FT",
        "synth-frames", "pipeline-frames", "synth-jitter", "pipeline-jitter",
    ],
)
def test_oversized_setting_is_a_config_error_naming_it(pristine, tmp_path, args, named):
    """Each exits 2 where the setting is read, before --out is made; `pipeline` before synth.

    A config file argument is given as the JSON it holds.
    """
    args = [arg.format(logs=pristine, big=OVERSIZED) for arg in args]
    if args[-2].endswith("config"):
        (tmp_path / "config.json").write_text(args[-1])
        args[-1] = str(tmp_path / "config.json")
    rc, err = run(args + ["--out", str(tmp_path / "out")])
    assert (rc, err.startswith(f"error: {named}")) == (2, True), err
    assert not (tmp_path / "out").exists()
