"""Script descriptors for the synthetic motion generator."""
from __future__ import annotations

import dataclasses
import math
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
        for name, ok, rule in (("duration", self.duration > 0, "finite and > 0"),
                               ("fps", self.fps > 0, "finite and > 0"),
                               ("camera_distance", self.camera_distance > 0, "finite and > 0"),
                               ("pixel_noise", self.pixel_noise >= 0, "finite and >= 0"),
                               ("depth_noise", self.depth_noise >= 0, "finite and >= 0"),
                               ("conf_drop", 0 <= self.conf_drop <= 1, "in [0, 1]"),
                               ("camera_height", True, "finite"),
                               ("camera_yaw", True, "finite or null")):
            value = getattr(self, name)
            if not (ok and (value is None or math.isfinite(value))):
                raise ValueError(f"script {self.name!r}: {name} must be {rule}, got {value!r}")

    def to_json(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload):
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ValueError(f"unknown MotionScript fields: {sorted(unknown)}")
        return cls(**payload)
