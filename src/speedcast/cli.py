"""Command-line entry point: synth, prepare, train, eval, ablate, gradcheck, pipeline."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .errors import InvalidConfigError, InvalidRecordError, SpeedcastError
from .evaluation import (
    CellResult,
    SweepSpec,
    evaluate,
    run_ablation,
    write_loss_curves,
    write_results_table,
)
from .ingest import ClipDataset, build_dataset, frame_stride, load_sessions
from .model import VARIANTS, ModelConfig, init_params, load_checkpoint, save_checkpoint
from .seeding import derive_seed, split_seed
from .synth import SynthConfig, generate, write_logs
from .train import TrainConfig, gradient_check, train_variant, variant_config
from .types import ACTION_NAMES, CategoryQuota

MANIFEST_SCHEMA = "speedcast-manifest/1"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Turn an OSError from writing artifact `path` into a config error naming the file that failed."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, value: object) -> None:
    """Write `value` to `path` as JSON indented by 2, with a final newline."""
    with _writing(path):
        path.write_text(json.dumps(value, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config_snapshot: dict, seed: int, artifacts: dict[str, Path]) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "config": config_snapshot,
        "master_seed": seed,
        "artifacts": {
            name: {"path": str(path), "sha256": _sha256(path)} for name, path in artifacts.items()
        },
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _make_out_dir(out: Path) -> None:
    """Create output directory `out` and its parents; an OSError is a config error naming --out."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot create --out directory {out}: {exc.strerror or exc}") from exc


def _parse_quota(text: str) -> CategoryQuota:
    """car,ped,traffic slot counts; anything but three positive integers is a config error."""
    try:
        counts = [int(part) for part in text.split(",")]
        if len(counts) == 3:
            return CategoryQuota(*counts)
    except (ValueError, InvalidConfigError):
        pass
    raise InvalidConfigError(f"--quota expects three positive counts car,ped,traffic, got {text!r}")


def _read_config(path: str, kind: str, cls: type) -> dict:
    """The fields that JSON config file `path` sets, as keyword arguments of dataclass `cls`.

    A file that cannot be read as UTF-8 text, is not JSON, is not a JSON object or
    has a key that is not a field of `cls` is a config error naming `path`. JSON
    lists become tuples.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read {kind} config {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{kind} config {path} is not JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise InvalidConfigError(f"{kind} config {path} is not a JSON object: {text.strip()[:80]!r}")
    unknown = sorted(values.keys() - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidConfigError(f"unknown {kind} config fields in {path}: {unknown}")
    return {name: tuple(v) if isinstance(v, list) else v for name, v in values.items()}


def _synth_config(path: str | None, seed: int | None) -> SynthConfig:
    """SynthConfig from an optional JSON file, then the --seed flag."""
    values = _read_config(path, "synth", SynthConfig) if path else {}
    return SynthConfig(**(values if seed is None else values | {"seed": seed}))


def _train_config(path: str | None, args: argparse.Namespace) -> TrainConfig:
    """TrainConfig from an optional JSON file, then the flags; a file that sets `seed` is a config error."""
    values = _read_config(path, "train", TrainConfig) if path else {}
    if "seed" in values:
        raise InvalidConfigError(f"train config {path} sets seed; every seed derives from --seed")
    for name in ("batch_size", "max_epochs", "step_size"):
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return TrainConfig(**values)


def run_synth(config: SynthConfig, out: Path) -> None:
    result = generate(config)  # a config error leaves no --out
    _make_out_dir(out)
    with _writing(out):
        det_path, sen_path = write_logs(result, out)
    _write_manifest(
        out,
        "synth",
        dataclasses.asdict(config),
        config.seed,
        {"detections": det_path, "sensors": sen_path},
    )
    print(f"wrote {det_path} and {sen_path} ({config.sessions} sessions)")


def run_prepare(
    logs: Path,
    out: Path,
    T: int,
    FT: int,
    quota: CategoryQuota,
    seed: int,
    source_fps: float,
    target_fps: float,
) -> None:
    sessions = load_sessions(logs, source_fps, target_fps)
    # Building checks T and FT and writes nothing, so a bad value leaves no --out behind.
    dataset = build_dataset(sessions, T=T, FT=FT, quota=quota, seed=split_seed(seed))
    _make_out_dir(out)
    archive = out / "clips.npz"
    with _writing(archive):
        dataset.save(archive)
    hist = np.bincount(dataset.labels, minlength=4)
    train_hist = np.bincount(dataset.labels[dataset.train_idx], minlength=4)
    _write_manifest(
        out,
        "prepare",
        {
            "T": T,
            "FT": FT,
            "quota": [quota.n_car, quota.n_pedestrian, quota.n_traffic],
            "source_fps": source_fps,
            "target_fps": target_fps,
        },
        seed,
        {"clips": archive},
    )
    if len(dataset) == 0:
        print("warning: no clips assembled from the given logs", file=sys.stderr)
    print(f"clips: {len(dataset)}  splits: {len(dataset.train_idx)}/{len(dataset.val_idx)}/{len(dataset.test_idx)}")
    for name, total, tr in zip(ACTION_NAMES, hist, train_hist):
        print(f"  {name}: {total} total, {tr} in oversampled train")


def run_train(
    archive: Path, out: Path, variant: str, K: int, seed: int, train_config: TrainConfig, quiet: bool
) -> int:
    """Train one variant on an archive; exit code 4 when a numeric fault aborted training."""
    progress = None if quiet else lambda e, tr, vl: print(f"epoch {e}: train {tr:.4f} val {vl:.4f}")
    dataset = ClipDataset.load(archive)
    model = variant_config(dataset, variant, K)
    _make_out_dir(out)
    best, report = train_variant(dataset, model, seed, train_config, progress)
    ckpt = out / "checkpoint.npz"
    with _writing(ckpt):
        save_checkpoint(best, ckpt)
    fault = report.fault
    report_path = out / "train_report.json"
    _write_json(
        report_path,
        {
            "stop_epoch": report.stop_epoch,
            "best_epoch": report.best_epoch,
            "best_val_loss": report.best_val_loss,
            "aborted": report.aborted,
            "fault": None if fault is None else {
                "epoch": fault.epoch, "batch": fault.batch, "tensor": fault.tensor, "message": str(fault),
            },
        },
    )
    metrics_path = out / "train_metrics.csv"
    run = CellResult(best.config.variant, dataset.T, dataset.FT, K, dataset.quota, seed, report=report)
    with _writing(metrics_path):
        write_loss_curves([run], metrics_path)
    _write_manifest(
        out,
        "train",
        {"variant": best.config.variant, "K": K, "train": dataclasses.asdict(train_config) | {"seed": None}},
        seed,
        {"checkpoint": ckpt, "report": report_path, "metrics": metrics_path},
    )
    print(
        f"stopped at epoch {report.stop_epoch}, best epoch {report.best_epoch} "
        f"(val loss {report.best_val_loss:.6f})"
    )
    return 4 if report.aborted else 0


def _clip_settings(clips: ClipDataset | ModelConfig) -> str:
    """The clip settings of an archive or a model, spelled like the `prepare` flags."""
    return f"T={clips.T} FT={clips.FT} quota={','.join(map(str, dataclasses.astuple(clips.quota)))}"


def run_eval(archive: Path, checkpoint: Path, split: str) -> None:
    dataset = ClipDataset.load(archive)
    params = load_checkpoint(checkpoint)
    built, given = _clip_settings(params.config), _clip_settings(dataset)
    if built != given:
        raise InvalidRecordError(
            f"checkpoint {checkpoint} was trained on clips of {built}, but archive {archive} holds clips of {given}"
        )
    # The training split holds oversampled repeats; each distinct clip is scored once.
    idx = {"train": np.unique(dataset.train_idx), "val": dataset.val_idx, "test": dataset.test_idx}[split]
    feats, mask, labels = dataset.subset(idx)
    metrics = evaluate(params, feats, mask, labels)
    for name, recall in zip(ACTION_NAMES, metrics.recalls):
        print(f"recall {name}: " + ("undefined" if recall is None else f"{recall:.2f}"))
    print(f"accuracy: {metrics.accuracy:.2f}")
    print(f"inference: {metrics.per_clip_us:.1f} us/clip over {len(labels)} clips")


def cmd_synth(args: argparse.Namespace) -> int:
    run_synth(_synth_config(args.config, args.seed), Path(args.out))
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    run_prepare(
        Path(args.logs), Path(args.out), args.T, args.FT, _parse_quota(args.quota),
        args.seed, args.source_fps, args.target_fps,
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    train_config = _train_config(args.config, args)
    return run_train(Path(args.archive), Path(args.out), args.variant, args.K, args.seed, train_config, args.quiet)


def cmd_eval(args: argparse.Namespace) -> int:
    run_eval(Path(args.archive), Path(args.checkpoint), args.split)
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    sweep = SweepSpec(
        T_set=tuple(args.T),
        FT_set=tuple(args.FT),
        K_set=tuple(args.K),
        variants=tuple(args.variant),
        quotas=(_parse_quota(args.quota),),
        seeds=(args.seed,),
    )
    sessions = load_sessions(args.logs)
    train_config = _train_config(args.config, args)
    out = Path(args.out)
    _make_out_dir(out)
    results = run_ablation(sessions, sweep, train_config)
    table = out / "results.csv"
    curves = out / "loss_curves.csv"
    with _writing(table):
        write_results_table(results, table)
    with _writing(curves):
        write_loss_curves(results, curves)
    _write_manifest(
        out,
        "ablate",
        {"sweep": dataclasses.asdict(sweep), "train": dataclasses.asdict(train_config) | {"seed": None}},
        args.seed,
        {"results": table, "loss_curves": curves},
    )
    failures = [c for c in results if c.error]
    print(f"{len(results)} cells, {len(failures)} failed; table at {table}")
    for cell in failures:
        print(f"  failed {cell.variant} T={cell.T} FT={cell.FT} K={cell.K}: {cell.error}", file=sys.stderr)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not np.isfinite(args.tolerance):
        raise InvalidConfigError(f"--tolerance must be a finite number, got {args.tolerance}")
    config = ModelConfig(
        T=3,
        FT=1,
        K=2,
        quota=CategoryQuota(3, 2, 1),
        graph_widths=(4, 8),
        lstm_hidden=8,
        mlp_widths=(8, 8),
        variant="full",
    )
    params = init_params(config, seed=derive_seed(args.seed, "gradcheck"))
    rng = np.random.default_rng(derive_seed(args.seed, "gradcheck-data"))
    # Check at a generic point: zero-initialized biases can leave rectifier
    # pre-activations exactly at the kink, where the one-sided finite
    # difference disagrees with the subgradient by construction.
    for _, arr in params.named_arrays():
        arr += rng.normal(scale=0.05, size=arr.shape)
    # A frame table read by three clips: the second overlaps the first in T-1
    # frames and the third repeats the first, as oversampling does, so a
    # frame's gradient sums over several clips and several steps.
    n_frames = config.T + 1
    features = rng.uniform(0.0, 1.0, size=(n_frames, config.quota.total, 4))
    mask = rng.uniform(size=(n_frames, config.quota.total)) < 0.7
    mask[:, 0] = True  # keep at least one real car per frame
    features[~mask] = 0.0
    windows = np.array([0, 1, 0])[:, None] + np.arange(config.T)
    labels = rng.integers(0, 4, size=2)[[0, 1, 0]]
    normwise: dict[str, float] = {}
    worst = gradient_check(features, mask, labels, params, normwise=normwise, windows=windows)
    worst_overall = max(worst.values())
    print("tensor: worst coordinate error (the gate), norm-wise error")
    for name in sorted(worst, key=lambda n: (worst[n], normwise[n]), reverse=True):
        print(f"  {name}: {worst[name]:.3e}  {normwise[name]:.3e}")
    print(
        f"max relative error {worst_overall:.3e} (tolerance {args.tolerance:.1e}), "
        f"largest norm-wise error {max(normwise.values()):.3e}"
    )
    if worst_overall > args.tolerance:
        print("gradient check FAILED", file=sys.stderr)
        return 5
    print("gradient check passed")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Chain synth -> prepare -> train -> eval into one run directory."""
    out = Path(args.out)
    quota = _parse_quota(args.quota)
    train_config = _train_config(args.train_config, args)
    # Both fail before anything is written.
    ModelConfig(T=args.T, FT=args.FT, K=args.K, quota=quota, variant=args.variant)
    frame_stride(args.source_fps, args.target_fps)
    run_synth(_synth_config(args.synth_config, args.seed), out / "logs")
    run_prepare(
        out / "logs", out / "dataset", args.T, args.FT, quota, args.seed, args.source_fps, args.target_fps
    )
    archive = out / "dataset" / "clips.npz"
    rc = run_train(archive, out / "model", args.variant, args.K, args.seed, train_config, args.quiet)
    if rc:
        return rc
    run_eval(archive, out / "model" / "checkpoint.npz", "test")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speedcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=0)
    clips = argparse.ArgumentParser(add_help=False)
    clips.add_argument("--T", type=int, default=10)
    clips.add_argument("--FT", type=int, default=1)
    clips.add_argument("--source-fps", type=float, default=3.0, dest="source_fps")
    clips.add_argument("--target-fps", type=float, default=3.0, dest="target_fps")
    quota = argparse.ArgumentParser(add_help=False)
    quota.add_argument("--quota", default="20,10,10", help="car,ped,traffic slot counts")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--variant", default="full")
    model.add_argument("--K", type=int, default=1)
    model.add_argument("--quiet", action="store_true")
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    training.add_argument("--max-epochs", type=int, default=None, dest="max_epochs")
    training.add_argument("--step-size", type=float, default=None, dest="step_size")

    p = sub.add_parser("synth", help="generate synthetic detection and sensor logs")
    p.add_argument("--config", help="synth config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", parents=[run, clips, quota], help="build a clip dataset archive from logs")
    p.add_argument("--logs", required=True, help="directory with detections.jsonl and sensors.jsonl")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[run, model, training], help="train a variant on a clip archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--config", help="train config JSON file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an archive split")
    p.add_argument("--archive", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[run, quota, training], help="run a sweep of variants and settings")
    p.add_argument("--logs", required=True)
    p.add_argument("--T", type=int, nargs="+", default=[10])
    p.add_argument("--FT", type=int, nargs="+", default=[1])
    p.add_argument("--K", type=int, nargs="+", default=[1])
    p.add_argument("--variant", nargs="+", default=list(VARIANTS))
    p.add_argument("--config", help="train config JSON file")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "pipeline", parents=[run, clips, quota, model, training], help="synth + prepare + train + eval in one run"
    )
    p.add_argument("--synth-config", default=None, dest="synth_config")
    p.add_argument("--train-config", default=None, dest="train_config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpeedcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
