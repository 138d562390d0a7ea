"""Deterministic synthetic egocentric-scene generator.

Each session is a sequence of constant-closing-speed segments of a lead
vehicle. The driver's pedals at frame t are a fixed rule applied to the
kinematics at frame t - reaction_delay, so a clip anchored at t fully
determines the label at t + FT whenever FT equals the reaction delay; the
information-theoretic ceiling of the learning task is therefore 100%.

In confound mode the same car kinematics map to opposite actions, with a
traffic-view cue object carrying the disambiguating bit. A car-only model
then faces an irreducible two-way ambiguity while the multi-view model does
not.

A session's segment plan is drawn one segment at a time. All draws of its
frames then come from one `rng.uniform` call with per-draw bounds, in the order
a frame-by-frame loop makes them (`tests/oracles.py` keeps that loop as the
reference), and boxes, confidences and pedals are computed as arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, allocating
from .ingest import ACCEL_THRESHOLD_PCT, BRAKE_THRESHOLD_KPA, frame_record, sensor_record
from .seeding import derive_seed
from .types import INT64_MAX, Action, DetectedObject, FrameDetections, SensorSample, check_field_types

IMAGE_W = 1280
IMAGE_H = 720

# Closing-speed (m/frame) sampling ranges per action; disjoint with margin so
# the class is recoverable from consecutive lead-car boxes.
CLOSING_RANGES = {
    Action.FULL_BRAKING: (1.0, 1.5),
    Action.SLIGHT_BRAKING: (0.5, 0.8),
    Action.SLIGHT_ACCELERATION: (-0.2, 0.2),
    Action.FULL_ACCELERATION: (-1.2, -0.7),
}
# Segment start distances give each action a near-disjoint gap band, so the
# lead-vehicle box size carries most of the class signal and its frame-to-frame
# change carries the rest.
START_DISTANCES = {
    Action.FULL_BRAKING: (15.0, 19.0),
    Action.SLIGHT_BRAKING: (22.0, 26.0),
    Action.SLIGHT_ACCELERATION: (30.0, 36.0),
    Action.FULL_ACCELERATION: (42.0, 48.0),
}
# Decision boundaries between the closing-speed ranges, used by the oracle rule.
FULL_BRAKE_KNEE = 0.9
SLIGHT_BRAKE_KNEE = 0.35
FULL_ACCEL_KNEE = -0.45

# Confound mode: the cue flips braking and acceleration pairs.
FLIPPED = {
    Action.FULL_BRAKING: Action.FULL_ACCELERATION,
    Action.SLIGHT_BRAKING: Action.SLIGHT_ACCELERATION,
    Action.SLIGHT_ACCELERATION: Action.SLIGHT_BRAKING,
    Action.FULL_ACCELERATION: Action.FULL_BRAKING,
}


@dataclass(frozen=True)
class SynthConfig:
    sessions: int = field(default=30, metadata={"ge": 1})
    frames_per_session: int = field(default=140, metadata={"ge": 1, "le": INT64_MAX})
    fps: float = field(default=3.0, metadata={"gt": 0})
    highway_fraction: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    segment_frames: tuple[int, int] = field(default=(4, 6), metadata={"ge": 3, "le": INT64_MAX})
    reaction_delay: int = field(default=1, metadata={"ge": 1})
    initial_stop_frames: int = field(default=3, metadata={"ge": 0})
    turn_segment_prob: float = field(default=0.05, metadata={"ge": 0, "le": 1})
    pedestrian_rate: float = field(default=0.3, metadata={"ge": 0, "le": 1})
    light_prob: float = field(default=0.4, metadata={"ge": 0, "le": 1})
    background_cars: tuple[int, int] = field(default=(2, 5), metadata={"ge": 0, "le": INT64_MAX})
    bbox_jitter_px: float = field(default=0.0, metadata={"ge": 0, "le": IMAGE_W})  # boxes are clipped to the image
    confidence_jitter: float = field(default=0.0, metadata={"ge": 0})
    confound: bool = False
    flag_prob: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("segment_frames", "background_cars"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise InvalidConfigError(f"SynthConfig field {name} must satisfy lo <= hi, got {(lo, hi)}")


@dataclass
class LatentState:
    """Ground-truth driving state at one frame."""

    distance: float  # lead-vehicle gap, meters
    closing_speed: float  # m/frame, positive = approaching
    flag: bool  # confound cue active this segment
    in_transition: bool  # first frame after a lead-vehicle switch


def oracle_label(state: LatentState, confound: bool = False) -> Optional[Action]:
    """The generative labeling rule itself; None = coasting."""
    if state.in_transition:
        return None
    c = state.closing_speed
    if c >= FULL_BRAKE_KNEE:
        action = Action.FULL_BRAKING
    elif c >= SLIGHT_BRAKE_KNEE:
        action = Action.SLIGHT_BRAKING
    elif c > FULL_ACCEL_KNEE:
        action = Action.SLIGHT_ACCELERATION
    else:
        action = Action.FULL_ACCELERATION
    if confound and state.flag:
        action = FLIPPED[action]
    return action


def _pedals(
    actions: list[Optional[Action]], scenario: str, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(brake_kpa, accel_pct) per frame realizing each action with margin to the thresholds.

    `u` holds each frame's pedal draw in [0, 1); frames without an action (None) read
    0.0 on both pedals and ignore theirs.
    """
    code = np.array([-1 if a is None else int(a) for a in actions])
    brake_kpa, accel_pct = BRAKE_THRESHOLD_KPA[scenario], ACCEL_THRESHOLD_PCT[scenario]
    brake = np.select(
        [code == Action.FULL_BRAKING, code == Action.SLIGHT_BRAKING],
        [brake_kpa * (1.25 + 0.15 * u), brake_kpa * (0.45 + 0.15 * u)],
        0.0,
    )
    accel = np.select(
        [code == Action.FULL_ACCELERATION, code == Action.SLIGHT_ACCELERATION],
        [np.minimum(95.0, accel_pct + 6.0 + 4.0 * u), np.maximum(2.0, accel_pct - 9.0 + 4.0 * u)],
        0.0,
    )
    return brake, accel


def _project_cars(distance: np.ndarray, lateral_px: np.ndarray) -> np.ndarray:
    """Pinhole-ish projection: nearer cars are larger and lower in frame; (x1, y1, x2, y2) on a new last axis."""
    near = np.maximum(distance, 4.0)
    h = np.minimum(450.0, 2600.0 / near)
    w = 1.5 * h
    y2 = np.minimum(IMAGE_H - 2.0, 350.0 + 1400.0 / near)
    y1 = np.maximum(1.0, y2 - h)
    cx = IMAGE_W / 2.0 + lateral_px
    x1 = np.maximum(1.0, cx - w / 2.0)
    x2 = np.minimum(IMAGE_W - 1.0, np.maximum(x1 + 4.0, cx + w / 2.0))
    return np.stack([x1, y1, x2, y2], axis=-1)


def _jitter_boxes(boxes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Boxes (..., 4) moved by the jitter draws `u` (..., 4), then clamped into the image, x1 and y1 first."""
    x1 = np.clip(boxes[..., 0] + u[..., 0], 0.0, IMAGE_W - 2.0)
    y1 = np.clip(boxes[..., 1] + u[..., 1], 0.0, IMAGE_H - 2.0)
    x2 = np.clip(boxes[..., 2] + u[..., 2], x1 + 1.0, IMAGE_W)
    y2 = np.clip(boxes[..., 3] + u[..., 3], y1 + 1.0, IMAGE_H)
    return np.stack([x1, y1, x2, y2], axis=-1)


@dataclass
class SynthResult:
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]]
    actions: dict[tuple[str, int], Optional[Action]]
    config: SynthConfig

    def oracle(self, session: str, frame_index: int) -> Optional[Action]:
        """Ground-truth action in force at this frame (None = coasting)."""
        return self.actions.get((session, frame_index))


def _generate_session(
    scenario: str, config: SynthConfig, seed: int
) -> tuple[list[FrameDetections], list[SensorSample], dict[int, Optional[Action]]]:
    rng = np.random.default_rng(seed)
    n = config.frames_per_session
    lo, hi = config.segment_frames

    # Segment plan: per-frame closing speed, cue flag, turn flag, transition marker.
    with allocating(f"SynthConfig frames_per_session={n}", f"a ({n},) array"):
        closing, distance = np.zeros(n), np.zeros(n)
    flag = np.zeros(n, dtype=bool)
    turning = np.zeros(n, dtype=bool)
    transition = np.zeros(n, dtype=bool)
    has_ped = np.zeros(n, dtype=bool)
    has_light = np.zeros(n, dtype=bool)

    pos = 0
    d = 30.0
    first_segment = True
    while pos < n:
        seg_len = int(rng.integers(lo, hi + 1))
        action = Action(int(rng.integers(0, 4)))
        c = rng.uniform(*CLOSING_RANGES[action])
        d = rng.uniform(*START_DISTANCES[action])
        seg_flag = config.confound and bool(rng.uniform() < config.flag_prob)
        seg_turn = bool(rng.uniform() < config.turn_segment_prob)
        seg_ped = bool(rng.uniform() < config.pedestrian_rate)
        seg_light = seg_flag if config.confound else (
            scenario == "urban" and bool(rng.uniform() < config.light_prob)
        )
        for t in range(pos, min(pos + seg_len, n)):
            closing[t] = c
            distance[t] = d
            flag[t] = seg_flag
            turning[t] = seg_turn
            has_ped[t] = seg_ped
            has_light[t] = seg_light
            d = max(4.0, d - c)
        transition[pos] = not first_segment
        first_segment = False
        pos += seg_len

    # Static background population.
    # Background traffic stays beyond the lead-gap bands so the lead vehicle
    # remains the dominant box under max pooling.
    n_bg = int(rng.integers(config.background_cars[0], config.background_cars[1] + 1))
    bg_dist = rng.uniform(55.0, 95.0, size=n_bg)
    bg_lateral = rng.uniform(250.0, 500.0, size=n_bg) * rng.choice([-1.0, 1.0], size=n_bg)
    bg_kind = rng.choice(["car", "bus", "truck"], size=n_bg, p=[0.7, 0.15, 0.15])
    ped_x0 = rng.uniform(100.0, 1100.0)
    ped_dir = float(rng.choice([-1.0, 1.0]))

    # The action in force at each frame: the rule applied to the scene reaction_delay
    # frames earlier, none while stopped.
    labels = [
        oracle_label(LatentState(*state), config.confound)
        for state in zip(distance.tolist(), closing.tolist(), flag.tolist(), transition.tolist())
    ]
    in_force = [
        None if t < config.initial_stop_frames or t < config.reaction_delay else labels[t - config.reaction_delay]
        for t in range(n)
    ]

    # Every draw of the frames, in one call. Per frame, in this order: the lead car's
    # lateral offset; per car, lead first, 4 box jitters (when jitter is on) and its
    # confidence; 4 jitters each for the pedestrian and the light when present; one
    # pedal draw when an action is in force; one steering draw unless turning.
    n_cars = 1 + n_bg
    j = config.bbox_jitter_px
    n_jit = 4 if j > 0 else 0
    car_cols = 1 + n_cars * (n_jit + 1)
    low = [-10.0] + ([-j] * n_jit + [-1.0]) * n_cars + [-j] * (2 * n_jit) + [0.0, -8.0]
    high = [10.0] + ([j] * n_jit + [1.0]) * n_cars + [j] * (2 * n_jit) + [1.0, 8.0]
    drawn = np.ones((n, len(low)), dtype=bool)
    drawn[:, car_cols : car_cols + n_jit] = has_ped[:, None]
    drawn[:, car_cols + n_jit : car_cols + 2 * n_jit] = has_light[:, None]
    drawn[:, -2] = [a is not None for a in in_force]
    drawn[:, -1] = ~turning
    u = np.zeros(drawn.shape)
    u[drawn] = rng.uniform(np.broadcast_to(low, u.shape)[drawn], np.broadcast_to(high, u.shape)[drawn])

    # One slot per object a frame can hold: the cars, lead first, the pedestrian and the light.
    car_u = u[:, 1:car_cols].reshape(n, n_cars, n_jit + 1)
    px = np.clip(ped_x0 + ped_dir * 8.0 * np.arange(n), 10.0, IMAGE_W - 60.0)
    boxes = np.concatenate(
        [
            _project_cars(distance, u[:, 0])[:, None],
            np.broadcast_to(_project_cars(bg_dist, bg_lateral), (n, n_bg, 4)),
            np.stack([px, np.full(n, 380.0), px + 45.0, np.full(n, 520.0)], axis=-1)[:, None],
            np.broadcast_to([900.0, 80.0, 945.0, 170.0], (n, 1, 4)),
        ],
        axis=1,
    )
    if n_jit:
        jitter = np.concatenate([car_u[..., :n_jit], u[:, car_cols : car_cols + 2 * n_jit].reshape(n, 2, 4)], axis=1)
        boxes = _jitter_boxes(boxes, jitter)
    conf_base = np.array([0.97] + [0.6 + 0.05 * b for b in range(n_bg)])
    car_conf = np.clip(conf_base + config.confidence_jitter * car_u[..., n_jit], 0.0, [1.0] + [0.9] * n_bg)
    conf = np.concatenate([car_conf, np.broadcast_to([0.85, 0.9], (n, 2))], axis=1)
    present = np.ones((n, n_cars + 2), dtype=bool)
    present[:, -2] = has_ped
    present[:, -1] = has_light
    category = ["car", *map(str, bg_kind), "pedestrian", "traffic_light" if scenario == "urban" else "stop_sign"]
    objects = list(
        map(
            DetectedObject,
            map(category.__getitem__, np.nonzero(present)[1].tolist()),
            map(tuple, boxes[present].tolist()),
            conf[present].tolist(),
        )
    )
    ends = np.cumsum(present.sum(axis=1)).tolist()
    frames = [
        FrameDetections(t, t / config.fps, IMAGE_W, IMAGE_H, objects[start:end])
        for t, start, end in zip(range(n), [0, *ends], ends)
    ]

    brake, accel = _pedals(in_force, scenario, u[:, -2])
    steer = np.where(turning, 45.0, u[:, -1])
    sensors = [
        SensorSample(t, b, a, s, scenario, is_moving=t >= config.initial_stop_frames)
        for t, (b, a, s) in enumerate(zip(brake.tolist(), accel.tolist(), steer.tolist()))
    ]
    return frames, sensors, dict(enumerate(in_force))


def generate(config: SynthConfig) -> SynthResult:
    """Produce per-session detection and sensor streams plus the true action at each frame.

    An `fps` so small that the last frame's timestamp is not finite raises
    InvalidConfigError naming it: `ingest` rejects such a log. `SynthConfig`
    takes every fps above 0, whatever the session length, so the check is here.
    """
    if not math.isfinite((config.frames_per_session - 1) / config.fps):
        raise InvalidConfigError(
            f"SynthConfig field fps {config.fps!r} is too small: frame {config.frames_per_session - 1} "
            "would have a non-finite timestamp"
        )
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]] = {}
    actions: dict[tuple[str, int], Optional[Action]] = {}
    n_highway = round(config.sessions * config.highway_fraction)
    for i in range(config.sessions):
        scenario = "highway" if i < n_highway else "urban"
        name = f"s{i:03d}"
        frames, sensors, session_actions = _generate_session(
            scenario, config, derive_seed(config.seed, "session", i)
        )
        sessions[name] = (frames, sensors)
        for t, action in session_actions.items():
            actions[(name, t)] = action
    return SynthResult(sessions=sessions, actions=actions, config=config)


def write_logs(result: SynthResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write detections.jsonl and sensors.jsonl in the ingest input formats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    det_path = out / "detections.jsonl"
    sen_path = out / "sensors.jsonl"
    with open(det_path, "w", encoding="utf-8") as det, open(sen_path, "w", encoding="utf-8") as sen:
        for name in sorted(result.sessions):
            frames, sensors = result.sessions[name]
            det.writelines(json.dumps(frame_record(name, frame)) + "\n" for frame in frames)
            sen.writelines(json.dumps(sensor_record(name, sample)) + "\n" for sample in sensors)
    return det_path, sen_path
