"""In-memory span tracer that hooks speedcast's layer functions from outside.

The tracer replaces each hooked function with a wrapper that records a span
(name, start, end, parent) and restores the originals on `uninstall`. Module
functions are rebound everywhere inside the package, so calls that go through
a `from .x import f` binding are traced too. A hook whose target no longer
exists is listed in `missing` and simply reports zero calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "speedcast"

# (span name, module, attribute path). Several hooks may share a span name.
HOOKS = (
    ("synth.generate", "speedcast.synth", "generate"),
    ("synth.write_logs", "speedcast.synth", "write_logs"),
    ("ingest.read_logs", "speedcast.ingest", "read_detection_log"),
    ("ingest.read_logs", "speedcast.ingest", "read_sensor_log"),
    ("ingest.assemble_clips", "speedcast.ingest", "assemble_clips"),
    ("ingest.build_dataset", "speedcast.ingest", "build_dataset"),
    ("ingest.save", "speedcast.ingest", "ClipDataset.save"),
    ("ingest.load", "speedcast.ingest", "ClipDataset.load"),
    ("ingest.subset", "speedcast.ingest", "ClipDataset.subset"),
    ("graph.spatial_encode_forward", "speedcast.graph", "spatial_encode_forward"),
    ("graph.spatial_encode_backward", "speedcast.graph", "spatial_encode_backward"),
    ("model.lstm_forward", "speedcast.model", "lstm_forward"),
    ("model.lstm_backward", "speedcast.model", "lstm_backward"),
    ("model.model_forward", "speedcast.model", "model_forward"),
    ("model.model_backward", "speedcast.model", "model_backward"),
    ("train.train", "speedcast.train", "train"),
    ("train.loss_and_grads", "speedcast.train", "loss_and_grads"),
    ("train.adam_step", "speedcast.train", "adam_step"),
    ("train.batch_loss", "speedcast.train", "batch_loss"),
    ("evaluation.predict", "speedcast.evaluation", "predict"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))


class Tracer:
    """Records nested spans around hooked calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _replace(self, owner: object, attr: str, old: object, new: object) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self, hooks=HOOKS) -> None:
        modules = {}
        for _, module_name, _ in hooks:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        package = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module_name, path in hooks:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(owner, attr, raw, type(raw)(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            self._replace(owner, attr, raw, wrapped)
            if outer:
                continue
            for module in package:
                for key in [k for k, v in vars(module).items() if v is raw]:
                    self._replace(module, key, raw, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def child_seconds(spans: list[list]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return child


def summarize(spans: list[list], names=SPAN_NAMES) -> dict[str, dict[str, float]]:
    """calls, busy_s (summed duration) and self_s (duration minus children) per span name.

    Names never called report zeros. Hooked functions do not recurse into
    themselves, so summing durations does not count any interval twice.
    """
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
    child = child_seconds(spans)
    for (name, start, end, _), kids in zip(spans, child):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - kids
    return out
