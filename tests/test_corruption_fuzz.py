"""Byte-level corruption: a damaged archive, checkpoint or log loads, or fails as a data error (exit 3)."""
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.cli import main
from speedcast.errors import SpeedcastError
from speedcast.ingest import ClipDataset, build_dataset, load_sessions, read_detection_log, read_sensor_log
from speedcast.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from speedcast.synth import SynthConfig, generate, write_logs
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
