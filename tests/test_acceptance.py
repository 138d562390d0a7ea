"""Acceptance gate: the nine binding criteria, one pass/fail line each.

Each test prints a single `[ACCEPTANCE n] name: PASS|FAIL` line (visible with
pytest -s or in captured output on failure) and asserts the criterion.
"""
import json
import time

import numpy as np
import pytest

from speedcast.cli import main
from speedcast.evaluation import RESULTS_HEADER, SweepSpec, evaluate, run_ablation, write_results_table
from speedcast.graph import ChebLayerParams, spatial_encode_forward
from speedcast.ingest import (
    ClipDataset,
    build_dataset,
    derive_label,
    oversample,
    split_dataset,
)
from speedcast.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from speedcast.synth import SynthConfig, generate
from speedcast.train import (
    EarlyStopper,
    TrainConfig,
    batch_loss,
    gradient_check,
    train,
)
from speedcast.types import Action, CategoryQuota, SensorSample

from oracles import GraphOperator, cheb_conv, cheb_conv_spectral


def report(number: int, name: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_gradient_correctness():
    config = ModelConfig(
        T=3, FT=1, K=2, quota=CategoryQuota(3, 2, 1), graph_widths=(4, 8),
        lstm_hidden=8, mlp_widths=(8, 8), variant="full",
    )
    params = init_params(config, seed=0)
    rng = np.random.default_rng(1)
    # a generic point: exact zeros in the biases can park rectifier
    # pre-activations on the kink where finite differences are one-sided
    for _, arr in params.named_arrays():
        arr += rng.normal(scale=0.05, size=arr.shape)
    batch = 2
    features = rng.uniform(0.0, 1.0, size=(batch, config.T, config.quota.total, 4))
    mask = rng.uniform(size=(batch, config.T, config.quota.total)) < 0.7
    mask[:, :, 0] = True
    features[~mask] = 0.0
    labels = rng.integers(0, 4, size=batch)
    started = time.perf_counter()
    worst = gradient_check(features, mask, labels, params, step=1e-5, abs_floor=1e-8)
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) <= 1e-4 and elapsed < 60.0
    report(1, "gradient correctness", ok)


def test_02_spectral_oracle():
    rng = np.random.default_rng(2)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        order = int(rng.integers(0, 6))
        a = rng.uniform(size=(n, n))
        a = ((a + a.T) > 1.0).astype(float) + np.eye(n)
        graph = GraphOperator.from_adjacency(a)
        x = rng.normal(size=(n, 3))
        layer = ChebLayerParams(
            weights=rng.normal(size=(order + 1, 3, 2)), bias=rng.normal(size=2)
        )
        dense = cheb_conv(x, graph, layer, activation="identity")
        spectral = cheb_conv_spectral(x, graph, layer, activation="identity")
        worst = max(worst, float(np.abs(dense - spectral).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, "spectral oracle", ok)


def test_03_invariance_suite():
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(100):
        layer = ChebLayerParams(
            weights=rng.normal(size=(3, 4, 3)), bias=rng.normal(size=3)
        )
        n_real = int(rng.integers(1, 6))
        n = n_real + int(rng.integers(0, 4))
        mask = np.zeros((1, 1, n), dtype=bool)
        mask[:, :, :n_real] = True
        x = np.zeros((1, 1, n, 4))
        x[0, 0, :n_real] = rng.normal(size=(n_real, 4))
        base, _ = spatial_encode_forward(x, mask, [layer])
        # permutation invariance of the pooled features
        perm = rng.permutation(n_real)
        xp = x.copy()
        xp[0, 0, :n_real] = x[0, 0, perm]
        permuted, _ = spatial_encode_forward(xp, mask, [layer])
        ok &= bool(np.abs(base - permuted).max() <= 1e-12)
        # padding invariance
        xe = np.concatenate([x, np.zeros((1, 1, 2, 4))], axis=2)
        me = np.concatenate([mask, np.zeros((1, 1, 2), dtype=bool)], axis=2)
        extended, _ = spatial_encode_forward(xe, me, [layer])
        ok &= bool(np.abs(base - extended).max() <= 1e-12)
        # softmax simplex and logit-shift argmax invariance
        logits = rng.normal(size=(4, 4)) * 5.0
        probs = softmax(logits)
        ok &= bool(np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12)
        ok &= bool(probs.min() >= 0.0)
        shift = rng.normal() * 50.0
        ok &= bool(np.all(logits.argmax(axis=1) == (logits + shift).argmax(axis=1)))
    report(3, "invariance suite", ok)


def test_04_label_derivation_grid():
    def sensor(brake, accel, scenario):
        return SensorSample(0, brake, accel, 0.0, scenario)

    cases = [
        # brake pedal: above / at threshold -> full, below -> slight
        (sensor(959.0, 0.0, "highway"), Action.FULL_BRAKING),
        (sensor(958.0, 0.0, "highway"), Action.FULL_BRAKING),
        (sensor(957.0, 0.0, "highway"), Action.SLIGHT_BRAKING),
        (sensor(100.0, 0.0, "highway"), Action.SLIGHT_BRAKING),
        (sensor(1462.0, 0.0, "urban"), Action.FULL_BRAKING),
        (sensor(1461.0, 0.0, "urban"), Action.FULL_BRAKING),
        (sensor(1460.0, 0.0, "urban"), Action.SLIGHT_BRAKING),
        (sensor(100.0, 0.0, "urban"), Action.SLIGHT_BRAKING),
        # accelerator pedal: above / at threshold -> full, below -> slight
        (sensor(0.0, 23.0, "highway"), Action.FULL_ACCELERATION),
        (sensor(0.0, 22.0, "highway"), Action.FULL_ACCELERATION),
        (sensor(0.0, 21.0, "highway"), Action.SLIGHT_ACCELERATION),
        (sensor(0.0, 1.0, "highway"), Action.SLIGHT_ACCELERATION),
        (sensor(0.0, 20.0, "urban"), Action.FULL_ACCELERATION),
        (sensor(0.0, 19.0, "urban"), Action.FULL_ACCELERATION),
        (sensor(0.0, 18.0, "urban"), Action.SLIGHT_ACCELERATION),
        (sensor(0.0, 1.0, "urban"), Action.SLIGHT_ACCELERATION),
    ]
    ok = all(derive_label(s) == expected for s, expected in cases)
    # the same 1000 kPa reading is full braking on the highway, slight in town
    ok &= derive_label(sensor(1000.0, 0.0, "highway")) == Action.FULL_BRAKING
    ok &= derive_label(sensor(1000.0, 0.0, "urban")) == Action.SLIGHT_BRAKING
    report(4, "label derivation grid", ok)


def test_05_dataset_plumbing():
    train_part, val_part, test_part = split_dataset(list(range(58721)), seed=0)
    ok = (len(train_part), len(val_part), len(test_part)) == (41105, 5872, 11744)

    skewed = np.array([0] * 11 + [1] * 7 + [2] * 3 + [3] * 2)
    hist = np.bincount(skewed[oversample(skewed, seed=0)], minlength=4)
    ok &= bool(hist.min() == hist.max() == 11)
    report(5, "dataset plumbing", ok)


def test_06_early_stopping(small_dataset):
    stopper = EarlyStopper(patience=50, min_delta=1e-6)
    losses = [1.0, 0.9] + [0.9 - 5e-7] * 50
    stopped_at = None
    for epoch, loss in enumerate(losses, start=1):
        stopper.update(loss, epoch)
        if stopper.should_stop:
            stopped_at = epoch
            break
    ok = stopped_at == 52 and stopper.best_epoch == 2 and stopper.best_loss == 0.9
    # the returned snapshot reproduces the recorded best validation loss
    config = ModelConfig(
        T=small_dataset.T, FT=small_dataset.FT, K=1, quota=small_dataset.quota,
        graph_widths=(4, 8), mlp_widths=(8, 8), variant="base",
    )
    params = init_params(config, seed=6)
    best, train_report = train(
        small_dataset, params, TrainConfig(batch_size=128, max_epochs=5, seed=6)
    )
    feats, mask, labels = small_dataset.subset(small_dataset.val_idx)
    ok &= abs(batch_loss(feats, mask, labels, best) - train_report.best_val_loss) <= 1e-12
    report(6, "early stopping", ok)


@pytest.fixture(scope="module")
def default_synth_dataset():
    result = generate(SynthConfig(sessions=30, frames_per_session=140, seed=7))
    return build_dataset(result.sessions, T=10, FT=1, quota=CategoryQuota(), seed=3)


def _train_and_score(dataset, variant, max_epochs):
    config = ModelConfig(T=dataset.T, FT=dataset.FT, K=1, quota=dataset.quota, variant=variant)
    params = init_params(config, seed=0)
    best, _ = train(dataset, params, TrainConfig(max_epochs=max_epochs, seed=0))
    return evaluate(best, *dataset.subset(dataset.test_idx)).accuracy


def test_07_end_to_end_learnability(default_synth_dataset):
    dataset = default_synth_dataset
    started = time.perf_counter()
    full_acc = _train_and_score(dataset, "full", max_epochs=60)
    elapsed = time.perf_counter() - started
    ok = len(dataset) >= 2000 and full_acc >= 90.0 and elapsed <= 600.0

    confounded = generate(
        SynthConfig(sessions=30, frames_per_session=140, seed=7, confound=True)
    )
    conf_dataset = build_dataset(confounded.sessions, T=10, FT=1, quota=CategoryQuota(), seed=3)
    conf_full = _train_and_score(conf_dataset, "full", max_epochs=60)
    conf_base = _train_and_score(conf_dataset, "base", max_epochs=60)
    ok &= conf_base <= conf_full - 10.0
    report(7, "end-to-end learnability", ok)


@pytest.fixture(scope="module")
def ablation_sessions():
    return generate(SynthConfig(sessions=6, frames_per_session=60, seed=11)).sessions


def test_08_ablation_harness(ablation_sessions, tmp_path):
    config = TrainConfig(batch_size=256, max_epochs=2, seed=0)
    variant_sweep = SweepSpec(
        T_set=(10,), FT_set=(1,), K_set=(1,),
        variants=("base", "base_single", "base_multi", "base_t", "full"),
    )
    setting_sweep = SweepSpec(T_set=(2, 15), FT_set=(1, 10), K_set=(1, 5), variants=("full",))
    ok = True
    runs = []
    for run_number in range(2):  # run twice to check bitwise reproducibility
        results = run_ablation(ablation_sessions, variant_sweep, config)
        ok &= all(cell.error is None for cell in results)
        path = tmp_path / f"table1_{run_number}.csv"
        write_results_table(results, path)
        lines = path.read_text().splitlines()
        ok &= lines[0] == RESULTS_HEADER and len(lines) == 6
        runs.append(results)
    # everything except the wall-clock timing column must be bitwise identical
    for a, b in zip(*runs):
        ok &= bool(np.array_equal(a.metrics.confusion, b.metrics.confusion))
        ok &= a.report.val_losses == b.report.val_losses
        ok &= a.report.train_losses == b.report.train_losses
        ok &= a.csv_row().rsplit(",", 1)[0] == b.csv_row().rsplit(",", 1)[0]
    settings_results = run_ablation(ablation_sessions, setting_sweep, config)
    ok &= all(cell.error is None for cell in settings_results)
    ok &= len(settings_results) == 8
    path = tmp_path / "table2.csv"
    write_results_table(settings_results, path)
    ok &= len(path.read_text().splitlines()) == 9
    report(8, "ablation harness", ok)


def test_09_pipeline_round_trip(tmp_path):
    synth_json = {"sessions": 5, "frames_per_session": 50, "seed": 5}
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps(synth_json))
    out = tmp_path / "run"
    rc = main(
        [
            "pipeline", "--out", str(out), "--seed", "5",
            "--synth-config", str(synth_cfg), "--T", "5", "--FT", "1",
            "--quota", "3,2,1", "--variant", "base",
            "--batch-size", "128", "--max-epochs", "2", "--quiet",
        ]
    )
    ok = rc == 0

    # every clip label equals the generator's ground truth at anchor + FT
    dataset = ClipDataset.load(out / "dataset" / "clips.npz")
    truth = generate(SynthConfig(**synth_json))
    ok &= len(dataset) > 0
    for i in range(len(dataset)):
        session = str(dataset.sessions[i])
        target = int(dataset.anchors[i]) + dataset.FT
        ok &= truth.oracle(session, target) == Action(int(dataset.labels[i]))

    # archives and checkpoints reload bit-exactly
    resaved = tmp_path / "resaved.npz"
    dataset.save(resaved)
    with np.load(out / "dataset" / "clips.npz", allow_pickle=False) as a:
        with np.load(resaved, allow_pickle=False) as b:
            ok &= set(a.files) == set(b.files)
            for key in a.files:
                ok &= bool(np.array_equal(a[key], b[key]))
    params = load_checkpoint(out / "model" / "checkpoint.npz")
    ckpt2 = tmp_path / "ckpt2.npz"
    save_checkpoint(params, ckpt2)
    reloaded = load_checkpoint(ckpt2)
    first = params.arrays()
    for name, arr in reloaded.named_arrays():
        ok &= bool(np.array_equal(arr, first[name]))
    report(9, "pipeline round trip", ok)
