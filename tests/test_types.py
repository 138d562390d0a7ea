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


def test_quota_total_must_fit_int64():
    """Each count is >= 1 by its declared bound; their sum must be an int64, as the archive stores it."""
    CategoryQuota(2**63 - 3, 1, 1)
    with pytest.raises(InvalidConfigError, match=f"total slot count must be <= {2**63 - 1}, got {2**63}"):
        CategoryQuota(2**63 - 2, 1, 1)


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


RANGED_CONFIGS = (CategoryQuota, ModelConfig, SynthConfig, TrainConfig)
BOUND_KEYS = {"ge", "gt", "le", "lt"}


def _default(f):
    return f.default_factory() if f.default is MISSING else f.default


@pytest.mark.parametrize("cls", RANGED_CONFIGS)
def test_every_number_field_declares_a_range(cls):
    """An int, float or integer-tuple field without a declared bound fails here; only seeds take any integer."""
    numeric = [f for f in fields(cls) if type(_default(f)) in (int, float, tuple)]
    assert numeric
    assert [f.name for f in numeric if f.name != "seed" and not BOUND_KEYS & f.metadata.keys()] == []


def _declared_bounds():
    """(cls, name, outside, edge) per declared bound: a value just outside it, and the bound itself,
    or for a strict bound the nearest value inside it."""
    for cls in RANGED_CONFIGS:
        for f in fields(cls):
            default = _default(f)
            for key in sorted(BOUND_KEYS & f.metadata.keys()):
                bound, up = f.metadata[key], key in ("le", "lt")
                if isinstance(default, float):
                    beyond = math.nextafter(bound, math.inf if up else -math.inf)
                    inside = math.nextafter(bound, -math.inf if up else math.inf)
                else:
                    beyond, inside = (bound + 1, bound - 1) if up else (bound - 1, bound + 1)
                outside, edge = (bound, inside) if key in ("gt", "lt") else (beyond, bound)
                if isinstance(default, tuple):  # a tuple's bound holds for every item
                    outside, edge = (outside,) * len(default), (edge,) * len(default)
                yield pytest.param(cls, f.name, outside, edge, id=f"{cls.__name__}.{f.name}.{key}")


@pytest.mark.parametrize("cls, name, outside, edge", _declared_bounds())
def test_every_declared_bound_is_enforced(cls, name, outside, edge):
    with pytest.raises(InvalidConfigError) as info:
        cls(**{name: outside})
    message = str(info.value)
    assert message.startswith(f"{cls.__name__} field {name} must be ") and message.endswith(f", got {outside!r}")
    assert getattr(cls(**{name: edge}), name) == edge


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (TrainConfig, {"batch_size": 0}, "TrainConfig field batch_size must be >= 1, got 0"),
        (TrainConfig, {"epsilon": 0.0}, "TrainConfig field epsilon must be > 0, got 0.0"),
        (TrainConfig, {"beta2": 1}, "TrainConfig field beta2 must be in [0, 1), got 1"),
        (SynthConfig, {"light_prob": 1.5}, "SynthConfig field light_prob must be in [0, 1], got 1.5"),
        (
            SynthConfig,
            {"background_cars": (2, -1)},
            f"SynthConfig field background_cars must be in [0, {2**63 - 1}], got (2, -1)",
        ),
        (
            ModelConfig,
            {"graph_widths": ()},
            "ModelConfig field graph_widths must be a tuple of at least 1 integers, got ()",
        ),
        (ModelConfig, {"mlp_widths": (8,)}, "ModelConfig field mlp_widths must be a tuple of 2 integers, got (8,)"),
    ],
    ids=["ge", "gt", "half-open", "closed", "tuple-item", "min-length", "pair-length"],
)
def test_range_error_form(cls, values, message):
    """Every range error reads "<Class> field <name> must be <range>, got <value>"."""
    with pytest.raises(InvalidConfigError) as info:
        cls(**values)
    assert str(info.value) == message
