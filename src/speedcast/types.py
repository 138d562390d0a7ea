"""Core value types shared across the pipeline."""
from __future__ import annotations

import math
import operator
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

_SUPER_OF = {raw: sup for sup, raws in CATEGORY_GROUPS.items() for raw in raws}

# The largest integer that archives store (`dims`, `quota`) and that numpy's integer draws take.
INT64_MAX = int(np.iinfo(np.int64).max)


def super_category(category: str) -> str:
    """Map a raw detector category to its graph view (car / pedestrian / traffic)."""
    try:
        return _SUPER_OF[category]
    except KeyError:
        raise InvalidRecordError(f"unknown object category: {category!r}") from None


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _plain(value: object) -> object:
    """`value` with each numpy scalar, also inside a tuple, replaced by the Python number it holds."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


def _range_text(bounds: dict[str, float]) -> str:
    """The range `bounds` allows, as '>= 1', '> 0', 'in [0, 1]' or 'in [0, 1)'."""
    if len(bounds) == 2:
        (lo, a), (hi, b) = sorted(bounds.items())  # ge and gt sort before le and lt
        return f"in {'[' if lo == 'ge' else '('}{a}, {b}{']' if hi == 'le' else ')'}"
    ((key, bound),) = bounds.items()
    return f"{dict(ge='>=', gt='>', le='<=', lt='<')[key]} {bound}"


def check_field_types(config: object) -> None:
    """Raise InvalidConfigError naming the first ill-typed or out-of-range field of dataclass `config`.

    A bool field takes only a bool, an int field an integer that is not a bool, a
    float field a finite number that is not a bool, a str field a str, a tuple field
    as many integers as its default (at least metadata `min_len` if set), and a field
    whose default is a dataclass an instance of that class. Metadata bounds `ge`, `gt`,
    `le` and `lt` hold for a number and for each item of a tuple. Numpy scalars are
    stored as Python numbers, so configs serialize as JSON.
    """
    cls = type(config).__name__
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
            n, ok = f.metadata.get("min_len"), isinstance(value, tuple) and all(map(_is_int, value))
            ok = ok and (len(value) >= n if n else len(value) == len(default))
            kind = f"a tuple of {f'at least {n}' if n else len(default)} integers"
        else:
            ok, kind = isinstance(value, type(default)), f"a {type(default).__name__}"
        if not ok:
            raise InvalidConfigError(f"{cls} field {f.name} must be {kind}, got {value!r}")
        value = _plain(value)
        bounds = {key: bound for key, bound in f.metadata.items() if key in ("ge", "gt", "le", "lt")}
        items = value if isinstance(value, tuple) else (value,)
        if not all(getattr(operator, key)(item, bound) for key, bound in bounds.items() for item in items):
            raise InvalidConfigError(f"{cls} field {f.name} must be {_range_text(bounds)}, got {value!r}")
        object.__setattr__(config, f.name, value)


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


@dataclass
class FrameDetections:
    """Per-frame object detections from an external detector."""

    frame_index: int
    timestamp: float
    image_width: int
    image_height: int
    objects: list[DetectedObject] = field(default_factory=list)


@dataclass
class SensorSample:
    """Time-aligned vehicle sensor readings used only for labeling and filtering."""

    frame_index: int
    brake_pressure: float  # kPa
    accel_pedal: float  # percent
    steering_angle: float  # degrees
    scenario: str  # "highway" | "urban"
    is_moving: Optional[bool] = None


@dataclass(frozen=True)
class CategoryQuota:
    """Per-view object slot counts; N = n_car + n_pedestrian + n_traffic."""

    n_car: int = field(default=20, metadata={"ge": 1})
    n_pedestrian: int = field(default=10, metadata={"ge": 1})
    n_traffic: int = field(default=10, metadata={"ge": 1})

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.total > INT64_MAX:
            raise InvalidConfigError(f"CategoryQuota total slot count must be <= {INT64_MAX}, got {self.total}")

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

