"""Synthetic scene generator: determinism, labeling rule, log round-trip."""
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from speedcast.cli import _synth_config
from speedcast.errors import InvalidConfigError
from speedcast.ingest import derive_label, read_detection_log, read_sensor_log
from speedcast.synth import (
    FLIPPED,
    _clamp,
    LatentState,
    SynthConfig,
    generate,
    oracle_label,
    write_logs,
)
from speedcast.types import Action

SMALL = SynthConfig(sessions=4, frames_per_session=50, seed=3)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = SynthConfig(sessions=2, confound=True, bbox_jitter_px=1.5, seed=9)
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert _synth_config(str(path), None) == cfg

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text('{"sessions": 2, "bogus": 1}')
        with pytest.raises(InvalidConfigError, match=r"unknown synth config fields in .*\['bogus'\]"):
            _synth_config(str(path), None)

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig(sessions=0)
        with pytest.raises(InvalidConfigError):
            SynthConfig(reaction_delay=0)
        with pytest.raises(InvalidConfigError):
            SynthConfig(segment_frames=(2, 5))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("confound", "no"),  # a truthy string would turn confound mode on
            ("confound", 1),
            ("sessions", "3"),
            ("sessions", True),
            ("sessions", 2.0),
            ("fps", "3"),
            ("segment_frames", (3, 4, 5)),
            ("segment_frames", (3, 4.5)),
            ("background_cars", [2, 5]),
        ],
    )
    def test_ill_typed_field_rejected(self, name, value):
        with pytest.raises(InvalidConfigError, match=f"field {name} must be"):
            SynthConfig(**{name: value})

    def test_ints_are_numbers(self):
        assert SynthConfig(fps=3, highway_fraction=1).fps == 3

    @pytest.mark.parametrize(
        "name, value",
        [
            ("segment_frames", (4,)),
            ("background_cars", (2, 3, 4)),
            ("background_cars", (5, 2)),
            ("background_cars", (-1, 2)),
            ("highway_fraction", 2.0),
            ("turn_segment_prob", -0.1),
            ("pedestrian_rate", 1.5),
            ("light_prob", -1),
            ("flag_prob", 1.01),
            ("initial_stop_frames", -3),
        ],
    )
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(InvalidConfigError, match=name):
            SynthConfig(**{name: value})

    def test_range_bounds_accepted(self):
        SynthConfig(background_cars=(0, 0), initial_stop_frames=0, highway_fraction=0, flag_prob=1.0)


_bounds = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def clamp_cases(draw):
    """(x, lo, hi) with lo <= hi; x is often a bound, a zero of either sign or not finite."""
    lo, hi = sorted([draw(st.one_of(_bounds, st.sampled_from([0.0, -0.0]))) for _ in range(2)])
    x = draw(st.one_of(st.floats(width=64), st.sampled_from([lo, hi, 0.0, -0.0, math.inf, -math.inf, math.nan])))
    return x, lo, hi


class TestClamp:
    @given(clamp_cases())
    def test_equals_np_clip_bit_for_bit(self, case):
        x, lo, hi = case
        expected = float(np.clip(x, lo, hi))
        got = _clamp(x, lo, hi)
        if x == expected == 0.0 and (x == lo or x == hi):
            # A zero x tying a zero bound: numpy 2.4 returns x, older numpy may
            # return the bound, and the generator clamps no zero. `_clamp` keeps x.
            assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, x)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestOracleRule:
    def test_closing_speed_bands(self):
        def state(c):
            return LatentState(distance=20.0, closing_speed=c, flag=False, in_transition=False)

        assert oracle_label(state(1.2)) == Action.FULL_BRAKING
        assert oracle_label(state(0.6)) == Action.SLIGHT_BRAKING
        assert oracle_label(state(0.0)) == Action.SLIGHT_ACCELERATION
        assert oracle_label(state(-0.9)) == Action.FULL_ACCELERATION

    def test_transition_frames_coast(self):
        state = LatentState(distance=20.0, closing_speed=1.2, flag=False, in_transition=True)
        assert oracle_label(state) is None

    def test_confound_flips_only_when_flagged(self):
        state = LatentState(distance=20.0, closing_speed=1.2, flag=True, in_transition=False)
        assert oracle_label(state, confound=True) == Action.FULL_ACCELERATION
        state.flag = False
        assert oracle_label(state, confound=True) == Action.FULL_BRAKING

    def test_flip_map_is_an_involution(self):
        for action, flipped in FLIPPED.items():
            assert FLIPPED[flipped] == action


class TestGenerate:
    def test_seed_determinism(self):
        a = generate(SMALL)
        b = generate(SMALL)
        for name in a.sessions:
            fa, sa = a.sessions[name]
            fb, sb = b.sessions[name]
            assert fa == fb
            assert sa == sb

    def test_different_seed_differs(self):
        a = generate(SMALL)
        b = generate(SynthConfig(sessions=4, frames_per_session=50, seed=4))
        assert a.sessions["s000"] != b.sessions["s000"]

    def test_sensor_labels_match_the_delayed_oracle(self):
        result = generate(SMALL)
        for name, (_, sensors) in result.sessions.items():
            for s in sensors:
                expected = result.oracle(name, s.frame_index)
                assert derive_label(s) == expected

    def test_initial_frames_are_stopped_and_coasting(self):
        result = generate(SMALL)
        for name, (_, sensors) in result.sessions.items():
            for s in sensors[: SMALL.initial_stop_frames]:
                assert s.is_moving is False
                assert derive_label(s) is None

    def test_every_frame_has_a_lead_car(self):
        result = generate(SMALL)
        frames, _ = result.sessions["s000"]
        for f in frames:
            cars = [o for o in f.objects if o.category in ("car", "bus", "truck")]
            assert cars
            f.validate()

    def test_all_actions_appear(self):
        result = generate(SynthConfig(sessions=8, frames_per_session=80, seed=1))
        seen = {a for a in result.actions.values() if a is not None}
        assert seen == set(Action)

    def test_scenarios_split_between_highway_and_urban(self):
        result = generate(SMALL)
        scenarios = {s[0].scenario for _, s in result.sessions.values()}
        assert scenarios == {"highway", "urban"}


class TestLogRoundTrip:
    def test_written_logs_parse_back_identically(self, tmp_path):
        result = generate(SMALL)
        det_path, sen_path = write_logs(result, tmp_path)
        detections = read_detection_log(det_path)
        sensor_log = read_sensor_log(sen_path)
        assert set(detections) == set(result.sessions)
        for name, (frames, sensors) in result.sessions.items():
            assert detections[name] == frames
            assert sensor_log[name] == sensors

    def test_rewrite_is_byte_identical(self, tmp_path):
        result = generate(SMALL)
        d1, s1 = write_logs(result, tmp_path / "a")
        d2, s2 = write_logs(generate(SMALL), tmp_path / "b")
        assert d1.read_bytes() == d2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
