"""Synthetic scene generator: determinism, labeling rule, log round-trip, frame-by-frame reference."""
import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedcast.cli import _synth_config
from speedcast.errors import InvalidConfigError
from speedcast.ingest import _parse_frame, derive_label, frame_record, read_detection_log, read_sensor_log
from speedcast.seeding import derive_seed
from speedcast.synth import (
    FLIPPED,
    LatentState,
    SynthConfig,
    _generate_session,
    generate,
    oracle_label,
    write_logs,
)
from speedcast.types import Action

from oracles import reference_session

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
            _parse_frame(frame_record("s000", f))  # raises on a record out of range

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


def _bits(value):
    """`value` with every float replaced by its IEEE bytes (signed zeros differ), recursing into
    dataclasses, tuples, lists and dicts; a numpy scalar fails, since the logs must hold Python numbers."""
    if type(value) is float:
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value)(map(_bits, value))
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    assert isinstance(value, (int, str, bool, type(None))) and not isinstance(value, np.generic), type(value)
    return value


_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def synth_configs(draw):
    """SynthConfigs over the settings that change which draws a frame makes, and how many."""
    lo = draw(st.integers(3, 8))
    bg_lo = draw(st.integers(0, 4))
    return SynthConfig(
        frames_per_session=draw(st.integers(1, 60)),
        segment_frames=(lo, lo + draw(st.integers(0, 4))),
        reaction_delay=draw(st.integers(1, 70)),
        initial_stop_frames=draw(st.integers(0, 70)),
        turn_segment_prob=draw(_probability),
        pedestrian_rate=draw(_probability),
        light_prob=draw(_probability),
        background_cars=(bg_lo, bg_lo + draw(st.integers(0, 3))),
        bbox_jitter_px=draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0))),
        confidence_jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        confound=draw(st.booleans()),
        flag_prob=draw(_probability),
    )


class TestMatchesFrameByFrameReference:
    """The array generator makes the frame-by-frame generator's sessions, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(synth_configs(), st.sampled_from(["highway", "urban"]), st.integers(0, 2**63 - 1))
    def test_session_is_bit_identical(self, config, scenario, seed):
        assert _bits(_generate_session(scenario, config, seed)) == _bits(reference_session(scenario, config, seed))

    @pytest.mark.parametrize(
        "config",
        [SMALL, SynthConfig(sessions=3, bbox_jitter_px=3.0, confidence_jitter=0.1, confound=True, seed=5)],
    )
    def test_generate_is_bit_identical(self, config):
        result = generate(config)
        for i, (name, (frames, sensors)) in enumerate(result.sessions.items()):
            scenario = sensors[0].scenario
            seed = derive_seed(config.seed, "session", i)
            ref_frames, ref_sensors, ref_actions = reference_session(scenario, config, seed)
            assert _bits((frames, sensors)) == _bits((ref_frames, ref_sensors))
            assert {t: result.oracle(name, t) for t in ref_actions} == ref_actions


class TestBatchedUniform:
    """The generator's premise: one `uniform` call with per-draw bounds yields the scalar calls' values."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)).map(lambda b: (b[0], b[0] + b[1])),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**63 - 1),
    )
    def test_equals_successive_scalar_calls(self, bounds, seed):
        low, high = np.array(bounds).T
        batched = np.random.default_rng(seed).uniform(low, high)
        rng = np.random.default_rng(seed)
        scalar = [rng.uniform(lo, hi) for lo, hi in bounds]
        assert batched.tobytes() == np.array(scalar).tobytes()
