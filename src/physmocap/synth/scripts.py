"""Script descriptors for the synthetic motion generator."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("stand", "walk", "hop", "jump", "dance")


def _finite_number(value):   # an int or float, not a bool
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def is_bare_name(name):   # a clip's name: its outputs are named after it
    return (isinstance(name, str) and name not in ("", ".", "..")
            and Path(name).name == name)


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
        if not is_bare_name(self.name):
            raise ValueError(f"script name must be a bare file name, got {self.name!r}")
        for name, ok, rule in (
                ("duration", lambda v: v > 0, "a finite number > 0"),
                ("fps", lambda v: v > 0, "a finite number > 0"),
                ("camera_distance", lambda v: v > 0, "a finite number > 0"),
                ("pixel_noise", lambda v: v >= 0, "a finite number >= 0"),
                ("depth_noise", lambda v: v >= 0, "a finite number >= 0"),
                ("conf_drop", lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                ("camera_height", lambda v: True, "a finite number"),
                ("camera_yaw", lambda v: True, "a finite number or null")):
            value = getattr(self, name)
            if not (name == "camera_yaw" and value is None
                    or _finite_number(value) and ok(value)):
                raise ValueError(f"script {self.name!r}: {name} must be {rule}, got {value!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"script {self.name!r}: params must be a dict, got {self.params!r}")
        for key, value in self.params.items():
            if not _finite_number(value):
                raise ValueError(f"script {self.name!r}: param {key!r} must be a finite "
                                 f"number, got {value!r}")

    def to_json(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload):
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ValueError(f"unknown MotionScript fields: {sorted(unknown)}")
        return cls(**payload)
