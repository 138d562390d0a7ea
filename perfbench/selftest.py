#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the workloads and metrics that
run.py defines and prints, that every run is correct, that no span's children
outlast it, that the tracer reports a vanished hook as 0 calls and restores
every original, and that the benchmark fails without a result when the
sources are missing. Exits 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

TIMEOUT_S = 300


class Failures(list):
    """The failed expectations of one self-test run."""

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)
            print(f"FAIL: {what}", file=sys.stderr)


def check_benchmark_json(failures: Failures) -> None:
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    failures.expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ from run.WORKLOADS")
    failures.expect(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "end_to_end differs from run.END_TO_END",
    )
    failures.expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
        "per_layer differs from run.PER_LAYER",
    )
    failures.expect(spec["command"] == ["python3", "perfbench/run.py"], "unexpected command")


def run_bench(workload: str, trace: int, out: Path, root: Path = run.REPO) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_spans(path: Path, failures: Failures) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    failures.expect(bool(spans) and spans[0][0] == "bench.pass" and spans[0][3] is None, f"{path.name}: no root span")
    for i, (name, start, end, parent) in enumerate(spans):
        failures.expect(end >= start, f"{path.name}: span {i} {name} ends before it starts")
        failures.expect(parent is None or parent < i, f"{path.name}: span {i} {name} has a later parent")
    for i, kids in enumerate(tracer.child_seconds(spans)):
        name, start, end, _ = spans[i]
        failures.expect(kids <= end - start + 1e-9, f"{path.name}: children of span {i} {name} outlast it")


def check_run(workload: str, trace: int, out: Path, failures: Failures) -> dict:
    proc = run_bench(workload, trace, out)
    label = f"{workload} trace={trace}"
    failures.expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failures.expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    failures.expect(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    failures.expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    metrics = run.PER_LAYER if trace else run.END_TO_END
    failures.expect(
        [(name, m["unit"]) for name, m in result["metrics"].items()] == [(row[0], row[1]) for row in metrics],
        f"{label}: metric names or units differ from BENCHMARK.json",
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    failures.expect(all(isinstance(v, (int, float)) for v in values.values()), f"{label}: non-numeric metric")
    if not trace:
        failures.expect(all(v > 0 for v in values.values()), f"{label}: an end-to-end metric is not positive")
    else:
        check_spans(out / f"spans_{workload}_seed3_trace1.jsonl", failures)
    return values


def check_missing_hook(failures: Failures) -> None:
    sys.path.insert(0, str(run.SRC))
    import speedcast.model
    import speedcast.train

    original = speedcast.model.model_forward
    tr = tracer.Tracer()
    tr.install(tracer.HOOKS + (("model.renamed_away", "speedcast.model", "renamed_away"),))
    try:
        failures.expect(speedcast.train.model_forward is not original, "from-import binding not hooked")
    finally:
        tr.uninstall()
    failures.expect(tr.missing == ["speedcast.model.renamed_away"], f"missing hooks {tr.missing}")
    failures.expect(tracer.summarize([], ["model.renamed_away"])["model.renamed_away"]["calls"] == 0, "missing hook calls")
    failures.expect(
        speedcast.model.model_forward is original and speedcast.train.model_forward is original,
        "uninstall did not restore the original functions",
    )


def check_fails_without_sources(tmp: Path, failures: Failures) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(run.REPO / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_full", 0, bare / "out", root=bare)
    failures.expect(proc.returncode != 0, "benchmark exited 0 without the sources")
    failures.expect('"metrics"' not in proc.stdout, "benchmark printed a result without the sources")


def main() -> int:
    failures = Failures()
    check_benchmark_json(failures)
    check_missing_hook(failures)
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=run.REPO) as tmp:
        out = Path(tmp)
        check_fails_without_sources(out, failures)
        for workload in run.WORKLOADS:
            check_run(workload, 0, out, failures)
            layers = check_run(workload, 1, out, failures)
            if workload == "train_full":
                failures.expect(layers.get("model.lstm_forward.calls", 0) > 0, "train_full: lstm_forward never called")
            if workload == "train_base_k5":
                failures.expect(layers.get("model.lstm_forward.calls", 1) == 0, "train_base_k5: lstm_forward called")
                failures.expect(layers.get("model.lstm_backward.calls", 1) == 0, "train_base_k5: lstm_backward called")
    print("selftest:", "FAIL" if failures else "ok", f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
