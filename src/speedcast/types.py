"""Core value types shared across the pipeline."""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import IntEnum
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, InvalidRecordError

# Raw detector labels grouped into the three graph views.
CATEGORY_GROUPS: dict[str, tuple[str, ...]] = {
    "car": ("car", "bus", "truck"),
    "pedestrian": ("pedestrian",),
    "traffic": ("traffic_light", "stop_sign"),
}
KNOWN_CATEGORIES = frozenset(c for g in CATEGORY_GROUPS.values() for c in g)

_SUPER_OF = {raw: sup for sup, raws in CATEGORY_GROUPS.items() for raw in raws}


def super_category(category: str) -> str:
    """Map a raw detector category to its graph view (car / pedestrian / traffic)."""
    try:
        return _SUPER_OF[category]
    except KeyError:
        raise InvalidRecordError(f"unknown object category: {category!r}") from None


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_field_types(config: object) -> None:
    """Raise InvalidConfigError naming the first field of dataclass `config` not typed like its default.

    A bool field takes only a bool, an int field an integer that is not a
    bool, a float field a finite number that is not a bool, a str field a
    str, a tuple field a tuple of integers, and a field whose default is a
    dataclass an instance of that class. Lengths and ranges are each class's own.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        default = f.default_factory() if f.default is MISSING else f.default
        if isinstance(default, bool):
            ok, kind = isinstance(value, bool), "a bool"
        elif isinstance(default, int):
            ok, kind = _is_int(value), "an integer"
        elif isinstance(default, float):
            ok = _is_int(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))
            kind = "a finite number"
        elif isinstance(default, tuple):
            ok, kind = isinstance(value, tuple) and all(map(_is_int, value)), "a tuple of integers"
        else:
            ok, kind = isinstance(value, type(default)), f"a {type(default).__name__}"
        if not ok:
            raise InvalidConfigError(f"{type(config).__name__} field {f.name} must be {kind}, got {value!r}")


class Action(IntEnum):
    """The four speed-control classes, index order fixed across the project."""

    FULL_BRAKING = 0
    SLIGHT_BRAKING = 1
    SLIGHT_ACCELERATION = 2
    FULL_ACCELERATION = 3


ACTION_NAMES = ("full_braking", "slight_braking", "slight_acceleration", "full_acceleration")
NUM_ACTIONS = 4


@dataclass
class DetectedObject:
    category: str
    bbox: tuple[float, float, float, float]  # (x1, y1, x2, y2) pixels
    confidence: float

    def validate(self, width: float, height: float) -> None:
        x1, y1, x2, y2 = self.bbox
        if not (0.0 <= x1 < x2 <= width and 0.0 <= y1 < y2 <= height):
            raise InvalidRecordError(
                f"bbox {self.bbox} outside {width}x{height} image or degenerate"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidRecordError(f"confidence {self.confidence} outside [0, 1]")
        if self.category not in KNOWN_CATEGORIES:
            raise InvalidRecordError(f"unknown object category: {self.category!r}")


@dataclass
class FrameDetections:
    """Per-frame object detections from an external detector."""

    frame_index: int
    timestamp: float
    image_width: int
    image_height: int
    objects: list[DetectedObject] = field(default_factory=list)

    def validate(self) -> None:
        if self.image_width <= 0 or self.image_height <= 0:
            raise InvalidRecordError(f"frame {self.frame_index}: non-positive image dims")
        for obj in self.objects:
            obj.validate(self.image_width, self.image_height)


@dataclass
class SensorSample:
    """Time-aligned vehicle sensor readings used only for labeling and filtering."""

    frame_index: int
    brake_pressure: float  # kPa
    accel_pedal: float  # percent
    steering_angle: float  # degrees
    scenario: str  # "highway" | "urban"
    is_moving: Optional[bool] = None

    def validate(self) -> None:
        if self.brake_pressure < 0:
            raise InvalidRecordError(
                f"frame {self.frame_index}: negative brake pressure {self.brake_pressure}"
            )
        if not 0.0 <= self.accel_pedal <= 100.0:
            raise InvalidRecordError(
                f"frame {self.frame_index}: accelerator percent {self.accel_pedal} outside [0, 100]"
            )
        if self.scenario not in ("highway", "urban"):
            raise InvalidRecordError(f"frame {self.frame_index}: unknown scenario {self.scenario!r}")


@dataclass(frozen=True)
class CategoryQuota:
    """Per-view object slot counts; N = n_car + n_pedestrian + n_traffic."""

    n_car: int = 20
    n_pedestrian: int = 10
    n_traffic: int = 10

    def __post_init__(self) -> None:
        check_field_types(self)
        if min(self.n_car, self.n_pedestrian, self.n_traffic) <= 0:
            raise InvalidRecordError(f"quota counts must be positive: {self}")

    @property
    def total(self) -> int:
        return self.n_car + self.n_pedestrian + self.n_traffic

    def slices(self) -> dict[str, slice]:
        """Row ranges of each view inside the N-row feature block."""
        return {
            "car": slice(0, self.n_car),
            "pedestrian": slice(self.n_car, self.n_car + self.n_pedestrian),
            "traffic": slice(self.n_car + self.n_pedestrian, self.total),
        }

