"""Core value types shared across the pipeline.

All 3D quantities of one sequence live in a single frame (for generated data
that is the camera frame: x right, y down, z along the optical axis). Nothing
here assumes a world up axis; the floor normal defines up. Types are treated
as immutable values; operations return new instances.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


def _unit(v, what):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError(f"{what} is numerically zero")
    return v / n


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """Per-frame 2D keypoints with confidences and initial 3D joint positions.

    joints3d holds global positions (root-relative estimate plus the root
    translation, already summed). Image coordinates are pixels; the principal
    point is the image center.
    """
    joint_names: tuple
    fps: float
    joints2d: np.ndarray   # T x J x 2, px
    conf: np.ndarray       # T x J, in [0, 1]
    joints3d: np.ndarray   # T x J x 3, m
    focal: float = 2000.0
    image_size: tuple = (1920.0, 1080.0)

    def __post_init__(self):
        object.__setattr__(self, "joints2d", np.asarray(self.joints2d, dtype=float))
        object.__setattr__(self, "conf", np.asarray(self.conf, dtype=float))
        object.__setattr__(self, "joints3d", np.asarray(self.joints3d, dtype=float))
        T, J = self.joints2d.shape[:2]
        if len(self.joint_names) != J:
            raise ValueError(
                f"{len(self.joint_names)} joint names but joints2d has {J} joints")
        if self.joints2d.shape != (T, J, 2):
            raise ValueError(f"joints2d shape {self.joints2d.shape}")
        if self.conf.shape != (T, J):
            raise ValueError(f"conf shape {self.conf.shape}, expected {(T, J)}")
        if self.joints3d.shape != (T, J, 3):
            raise ValueError(f"joints3d shape {self.joints3d.shape}, expected {(T, J, 3)}")
        if not np.isfinite(self.fps) or self.fps <= 0:
            raise ValueError(f"fps must be finite and positive, got {self.fps}")
        if np.any(self.conf < -1e-9) or np.any(self.conf > 1.0 + 1e-9):
            raise ValueError("confidences must lie in [0, 1]")
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise ValueError(f"focal must be finite and positive, got {self.focal}")
        size = np.asarray(self.image_size, dtype=float)
        if size.shape != (2,) or not np.all(np.isfinite(size) & (size > 0)):
            raise ValueError(
                f"image_size must be two finite positive numbers, got {self.image_size}")

    @property
    def n_frames(self):
        return self.joints2d.shape[0]

    @property
    def principal_point(self):
        return (0.5 * self.image_size[0], 0.5 * self.image_size[1])

    def joint_id(self, name):
        return self.joint_names.index(name)


@dataclass(frozen=True, eq=False)
class JointAngleMotion:
    """Skeleton-parameterized motion: root translation plus per-joint Euler angles."""
    skeleton: object
    fps: float
    root_pos: np.ndarray      # T x 3
    joint_angles: np.ndarray  # T x J x 3, intrinsic Z-Y-X; row 0 is the root rotation

    def __post_init__(self):
        object.__setattr__(self, "root_pos", np.asarray(self.root_pos, dtype=float))
        object.__setattr__(self, "joint_angles", np.asarray(self.joint_angles, dtype=float))
        T = self.root_pos.shape[0]
        J = self.skeleton.n_joints
        if self.root_pos.shape != (T, 3):
            raise ValueError(f"root_pos shape {self.root_pos.shape}")
        if self.joint_angles.shape != (T, J, 3):
            raise ValueError(
                f"joint_angles shape {self.joint_angles.shape}, expected {(T, J, 3)}")
        if not np.isfinite(self.fps) or self.fps <= 0:
            raise ValueError(f"fps must be finite and positive, got {self.fps}")

    @property
    def n_frames(self):
        return self.root_pos.shape[0]

    def with_frames(self, root_pos, joint_angles):
        return replace(self, root_pos=root_pos, joint_angles=joint_angles)


@dataclass(frozen=True, eq=False)
class FloorPlane:
    """Ground plane: unit normal and a point on the plane.

    Its two unit tangents are derived from the normal, never given, so the
    frame (t1, t2, n) is orthonormal for every floor: t1 is n x ref made
    unit, with ref the x axis, or the y axis where |n.x| > 0.9; t2 = n x t1.
    """
    normal: np.ndarray
    point: np.ndarray
    tangents: np.ndarray = field(init=False)  # 2 x 3

    def __post_init__(self):
        n = _unit(self.normal, "floor normal")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        ref = np.array([1.0, 0.0, 0.0])
        if abs(n @ ref) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        t1 = _unit(np.cross(n, ref), "floor tangent")
        object.__setattr__(self, "tangents", np.stack([t1, np.cross(n, t1)]))

    def height(self, points):
        """Signed distance along the normal; positive above the floor."""
        return (np.asarray(points) - self.point) @ self.normal

    def transformed(self, R, t):
        R = np.asarray(R)
        return FloorPlane(R @ self.normal, R @ self.point + np.asarray(t))


@dataclass(frozen=True, eq=False)
class CentroidalStates:
    """Centroidal trajectory over a clip, stored as arrays (one row per frame)."""
    mass: float
    r: np.ndarray          # T x 3
    theta: np.ndarray      # T x 3, unwrapped over time per component
    I_b: np.ndarray        # T x 3 x 3

    def __post_init__(self):
        for name in ("r", "theta", "I_b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        T = self.r.shape[0]
        for name, shape in (("r", (T, 3)), ("theta", (T, 3)), ("I_b", (T, 3, 3))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got}, expected {shape}")

    @property
    def n_frames(self):
        return self.r.shape[0]
