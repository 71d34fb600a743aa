"""Script descriptors for the synthetic motion generator."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

KINDS = ("stand", "walk", "hop", "jump", "dance")


@dataclass(frozen=True)
class MotionScript:
    """Recipe for one synthetic clip.

    params is a kind-specific dict (stride, cycle_time, flight_time, ...);
    unknown keys are rejected by the builders so typos fail loudly. Noise
    fields are standard deviations (pixels for 2D, meters for 3D); conf_drop
    is the per-joint-frame probability of a low-confidence outlier detection.
    A camera_yaw of None means the yaw is drawn from the generator seed.
    """

    name: str
    kind: str
    duration: float = 2.0
    fps: float = 30.0
    params: dict = field(default_factory=dict)
    pixel_noise: float = 0.0
    depth_noise: float = 0.0
    conf_drop: float = 0.0
    camera_distance: float = 5.5
    camera_height: float = 1.0
    camera_yaw: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown script kind '{self.kind}', expected one of {KINDS}")
        if self.duration <= 0 or self.fps <= 0:
            raise ValueError("duration and fps must be positive")

    def to_json(self):
        out = dataclasses.asdict(self)
        return out

    @classmethod
    def from_json(cls, payload):
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ValueError(f"unknown MotionScript fields: {sorted(unknown)}")
        return cls(**payload)
