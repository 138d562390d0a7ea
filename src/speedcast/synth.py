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
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidConfigError
from .ingest import ACCEL_THRESHOLD_PCT, BRAKE_THRESHOLD_KPA
from .seeding import derive_seed
from .types import Action, DetectedObject, FrameDetections, SensorSample, check_field_types

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
    sessions: int = 30
    frames_per_session: int = 140
    fps: float = 3.0
    highway_fraction: float = 0.5
    segment_frames: tuple[int, int] = (4, 6)
    reaction_delay: int = 1
    initial_stop_frames: int = 3
    turn_segment_prob: float = 0.05
    pedestrian_rate: float = 0.3
    light_prob: float = 0.4
    background_cars: tuple[int, int] = (2, 5)
    bbox_jitter_px: float = 0.0
    confidence_jitter: float = 0.0
    confound: bool = False
    flag_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("segment_frames", "background_cars"):
            if len(getattr(self, name)) != 2:
                raise InvalidConfigError(f"SynthConfig field {name} must be 2 integers, got {getattr(self, name)!r}")
        if self.sessions <= 0 or self.frames_per_session <= 0 or self.fps <= 0:
            raise InvalidConfigError("sessions, frames_per_session and fps must be positive")
        if self.bbox_jitter_px < 0 or self.confidence_jitter < 0:
            raise InvalidConfigError("noise levels must be non-negative")
        if self.reaction_delay < 1:
            raise InvalidConfigError("reaction_delay must be >= 1")
        if self.initial_stop_frames < 0:
            raise InvalidConfigError(f"initial_stop_frames must be >= 0, got {self.initial_stop_frames}")
        for name in ("highway_fraction", "turn_segment_prob", "pedestrian_rate", "light_prob", "flag_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise InvalidConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        lo, hi = self.segment_frames
        if lo < 3 or hi < lo:
            raise InvalidConfigError(f"segment_frames must satisfy 3 <= lo <= hi, got {self.segment_frames}")
        lo, hi = self.background_cars
        if lo < 0 or hi < lo:
            raise InvalidConfigError(f"background_cars must satisfy 0 <= lo <= hi, got {self.background_cars}")


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


def _pedals(action: Optional[Action], scenario: str, rng: np.random.Generator) -> tuple[float, float]:
    """(brake_kpa, accel_pct) realizing the action with margin to the thresholds."""
    if action is None:
        return 0.0, 0.0
    u = rng.uniform()
    if action is Action.FULL_BRAKING:
        return BRAKE_THRESHOLD_KPA[scenario] * (1.25 + 0.15 * u), 0.0
    if action is Action.SLIGHT_BRAKING:
        return BRAKE_THRESHOLD_KPA[scenario] * (0.45 + 0.15 * u), 0.0
    if action is Action.FULL_ACCELERATION:
        return 0.0, min(95.0, ACCEL_THRESHOLD_PCT[scenario] + 6.0 + 4.0 * u)
    return 0.0, max(2.0, ACCEL_THRESHOLD_PCT[scenario] - 9.0 + 4.0 * u)


def _project_car(distance: float, lateral_px: float) -> tuple[float, float, float, float]:
    """Pinhole-ish projection: nearer cars are larger and lower in frame."""
    h = min(450.0, 2600.0 / max(distance, 4.0))
    w = 1.5 * h
    y2 = min(IMAGE_H - 2.0, 350.0 + 1400.0 / max(distance, 4.0))
    y1 = max(1.0, y2 - h)
    cx = IMAGE_W / 2.0 + lateral_px
    x1 = max(1.0, cx - w / 2.0)
    x2 = min(IMAGE_W - 1.0, max(x1 + 4.0, cx + w / 2.0))
    return x1, y1, x2, y2


def _clamp(x: float, lo: float, hi: float) -> float:
    """`float(np.clip(x, lo, hi))` for Python floats, without a numpy call per value.

    Bit for bit the same. Where x is a zero that ties a zero bound of the other
    sign it returns x, as numpy 2.4 does; older numpy may return the bound.
    """
    return float(min(max(x, lo), hi))


def _jitter_box(
    box: tuple[float, float, float, float], jitter: float, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    if jitter <= 0:
        return box
    x1, y1, x2, y2 = (v + rng.uniform(-jitter, jitter) for v in box)
    x1 = _clamp(x1, 0.0, IMAGE_W - 2.0)
    y1 = _clamp(y1, 0.0, IMAGE_H - 2.0)
    x2 = _clamp(x2, x1 + 1.0, IMAGE_W)
    y2 = _clamp(y2, y1 + 1.0, IMAGE_H)
    return x1, y1, x2, y2


@dataclass
class SynthResult:
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]]
    actions: dict[tuple[str, int], Optional[Action]]
    config: SynthConfig

    def oracle(self, session: str, frame_index: int) -> Optional[Action]:
        """Ground-truth action in force at this frame (None = coasting)."""
        return self.actions.get((session, frame_index))


def _generate_session(
    name: str, scenario: str, config: SynthConfig, seed: int
) -> tuple[
    list[FrameDetections],
    list[SensorSample],
    dict[int, Optional[Action]],
]:
    rng = np.random.default_rng(seed)
    n = config.frames_per_session
    lo, hi = config.segment_frames

    # Segment plan: per-frame closing speed, cue flag, turn flag, transition marker.
    closing = np.zeros(n)
    distance = np.zeros(n)
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

    frames: list[FrameDetections] = []
    sensors: list[SensorSample] = []
    latents: dict[int, LatentState] = {}
    actions: dict[int, Optional[Action]] = {}
    for t in range(n):
        state = LatentState(
            distance=float(distance[t]),
            closing_speed=float(closing[t]),
            flag=bool(flag[t]),
            in_transition=bool(transition[t]),
        )
        latents[t] = state

        objects = [
            DetectedObject(
                category="car",
                bbox=_jitter_box(
                    _project_car(state.distance, rng.uniform(-10.0, 10.0)),
                    config.bbox_jitter_px,
                    rng,
                ),
                confidence=_clamp(0.97 + config.confidence_jitter * rng.uniform(-1, 1), 0.0, 1.0),
            )
        ]
        for b in range(n_bg):
            objects.append(
                DetectedObject(
                    category=str(bg_kind[b]),
                    bbox=_jitter_box(
                        _project_car(float(bg_dist[b]), float(bg_lateral[b])),
                        config.bbox_jitter_px,
                        rng,
                    ),
                    confidence=_clamp(
                        0.6 + 0.05 * b + config.confidence_jitter * rng.uniform(-1, 1), 0.0, 0.9
                    ),
                )
            )
        if has_ped[t]:
            px = _clamp(ped_x0 + ped_dir * 8.0 * t, 10.0, IMAGE_W - 60.0)
            objects.append(
                DetectedObject(
                    category="pedestrian",
                    bbox=_jitter_box((px, 380.0, px + 45.0, 520.0), config.bbox_jitter_px, rng),
                    confidence=0.85,
                )
            )
        if has_light[t]:
            objects.append(
                DetectedObject(
                    category="traffic_light" if scenario == "urban" else "stop_sign",
                    bbox=_jitter_box((900.0, 80.0, 945.0, 170.0), config.bbox_jitter_px, rng),
                    confidence=0.9,
                )
            )
        frames.append(
            FrameDetections(
                frame_index=t,
                timestamp=t / config.fps,
                image_width=IMAGE_W,
                image_height=IMAGE_H,
                objects=objects,
            )
        )

        # Pedal response lags the observed kinematics by reaction_delay frames.
        src = t - config.reaction_delay
        stopped = t < config.initial_stop_frames
        if stopped or src < 0:
            action = None
        else:
            action = oracle_label(latents[src], config.confound)
        actions[t] = action
        brake, accel = _pedals(action, scenario, rng)
        steer = 45.0 if turning[t] else float(rng.uniform(-8.0, 8.0))
        sensors.append(
            SensorSample(
                frame_index=t,
                brake_pressure=brake,
                accel_pedal=accel,
                steering_angle=steer,
                scenario=scenario,
                is_moving=not stopped,
            )
        )
    return frames, sensors, actions


def generate(config: SynthConfig) -> SynthResult:
    """Produce per-session detection and sensor streams plus the true action at each frame."""
    sessions: dict[str, tuple[list[FrameDetections], list[SensorSample]]] = {}
    actions: dict[tuple[str, int], Optional[Action]] = {}
    n_highway = round(config.sessions * config.highway_fraction)
    for i in range(config.sessions):
        scenario = "highway" if i < n_highway else "urban"
        name = f"s{i:03d}"
        frames, sensors, session_actions = _generate_session(
            name, scenario, config, derive_seed(config.seed, "session", i)
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
    with open(det_path, "w", encoding="utf-8") as det:
        for name in sorted(result.sessions):
            frames, _ = result.sessions[name]
            for frame in frames:
                det.write(
                    json.dumps(
                        {
                            "session": name,
                            "frame_index": frame.frame_index,
                            "timestamp": frame.timestamp,
                            "width": frame.image_width,
                            "height": frame.image_height,
                            "objects": [
                                {
                                    "category": o.category,
                                    "x1": o.bbox[0],
                                    "y1": o.bbox[1],
                                    "x2": o.bbox[2],
                                    "y2": o.bbox[3],
                                    "confidence": o.confidence,
                                }
                                for o in frame.objects
                            ],
                        }
                    )
                    + "\n"
                )
    with open(sen_path, "w", encoding="utf-8") as sen:
        for name in sorted(result.sessions):
            _, sensors = result.sessions[name]
            for s in sensors:
                sen.write(
                    json.dumps(
                        {
                            "session": name,
                            "frame_index": s.frame_index,
                            "brake_kpa": s.brake_pressure,
                            "accel_pct": s.accel_pedal,
                            "steer_deg": s.steering_angle,
                            "scenario": s.scenario,
                            "is_moving": s.is_moving,
                        }
                    )
                    + "\n"
                )
    return det_path, sen_path
