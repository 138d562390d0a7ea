import json
import math
from dataclasses import MISSING, fields

import numpy as np
import pytest

from speedcast.errors import InvalidConfigError, InvalidRecordError
from speedcast.model import ModelConfig
from speedcast.synth import SynthConfig
from speedcast.train import TrainConfig
from speedcast.types import (
    ACTION_NAMES,
    NUM_ACTIONS,
    Action,
    CategoryQuota,
    DetectedObject,
    FrameDetections,
    SensorSample,
    super_category,
)


def test_action_index_order_is_fixed():
    assert [int(a) for a in Action] == [0, 1, 2, 3]
    assert len(ACTION_NAMES) == NUM_ACTIONS == 4
    assert Action.FULL_BRAKING == 0
    assert Action.FULL_ACCELERATION == 3


@pytest.mark.parametrize(
    "raw,view",
    [
        ("car", "car"),
        ("bus", "car"),
        ("truck", "car"),
        ("pedestrian", "pedestrian"),
        ("traffic_light", "traffic"),
        ("stop_sign", "traffic"),
    ],
)
def test_super_category_grouping(raw, view):
    assert super_category(raw) == view


def test_super_category_rejects_unknown():
    with pytest.raises(InvalidRecordError):
        super_category("bicycle")


def test_quota_slices_partition_the_block():
    quota = CategoryQuota(5, 3, 2)
    slices = quota.slices()
    assert quota.total == 10
    assert slices["car"] == slice(0, 5)
    assert slices["pedestrian"] == slice(5, 8)
    assert slices["traffic"] == slice(8, 10)


def test_quota_rejects_non_positive_counts():
    with pytest.raises(InvalidRecordError):
        CategoryQuota(0, 1, 1)


def test_detected_object_validation():
    frame = FrameDetections(
        frame_index=0,
        timestamp=0.0,
        image_width=100,
        image_height=50,
        objects=[DetectedObject("car", (10, 10, 90, 40), 0.9)],
    )
    frame.validate()
    frame.objects.append(DetectedObject("car", (90, 10, 10, 40), 0.9))
    with pytest.raises(InvalidRecordError):
        frame.validate()


def test_detected_object_rejects_bad_confidence():
    with pytest.raises(InvalidRecordError):
        DetectedObject("car", (0, 0, 5, 5), 1.5).validate(10, 10)


def test_sensor_sample_validation():
    SensorSample(0, 100.0, 0.0, 5.0, "highway").validate()
    with pytest.raises(InvalidRecordError):
        SensorSample(0, -1.0, 0.0, 0.0, "highway").validate()
    with pytest.raises(InvalidRecordError):
        SensorSample(0, 0.0, 120.0, 0.0, "highway").validate()
    with pytest.raises(InvalidRecordError):
        SensorSample(0, 0.0, 0.0, 0.0, "rural").validate()


def _ill_typed_fields():
    """A wrong-typed value for every field of every config dataclass; NaN and inf too for float fields."""
    for cls in (CategoryQuota, ModelConfig, SynthConfig, TrainConfig):
        for f in fields(cls):
            default = f.default_factory() if f.default is MISSING else f.default
            values = [None, 1 if isinstance(default, str) else "1"]
            if isinstance(default, float):
                values += [math.nan, math.inf, -math.inf]
            for value in values:
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", _ill_typed_fields())
def test_every_config_field_is_type_checked(cls, name, value):
    with pytest.raises(InvalidConfigError, match=f"{cls.__name__} field {name} must be"):
        cls(**{name: value})


def test_numpy_scalars_are_stored_as_python_numbers():
    """A config built from numpy scalars serializes as JSON, and a float32 keeps its value."""
    config = TrainConfig(batch_size=np.int64(4), step_size=np.float32(0.3), beta1=np.int64(0))
    plain = TrainConfig(batch_size=4, step_size=float(np.float32(0.3)), beta1=0)
    assert json.dumps(vars(config)) == json.dumps(vars(plain))
    assert type(config.batch_size) is int and type(config.step_size) is float and type(config.beta1) is int
    assert config.step_size == float(np.float32(0.3)) != 0.3
    assert SynthConfig(segment_frames=(np.int32(5), np.int64(9))).segment_frames == (5, 9)
