"""Analytic leg posing for the synthetic generator.

Two-bone IK with an explicit bend plane: given hip and ankle positions, the
knee is placed on the circle of reachable points, bending toward a forward
hint direction. Joint angles are recovered from the resulting world rotations,
so forward kinematics reproduces the planned ankle exactly.

Both functions take (..., 3) positions, one row per frame, and solve every
frame at once; a single (3,) frame works too. Row-wise dot products and norms
are taken as (1 x 3) @ (3 x 1) matmuls, which round exactly as np.dot and
np.linalg.norm do on one frame, so a batch poses each frame bit for bit as a
per-frame call would (np.einsum and norm(axis=-1) sum in another order).
"""
from __future__ import annotations

import numpy as np

from ..core.rotation import euler_to_matrix, matrix_to_euler

ANKLE_DROP = 0.070  # flat-foot ankle height above the sole plane
FORWARD = np.array([1.0, 0.0, 0.0])   # the knee bends toward this hint


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a):
    return np.sqrt(_dot(a, a))


def two_bone_ik(hip, ankle, len1, len2):
    """Knee positions for hip->knee->ankle chains bending toward FORWARD.

    hip, ankle: (..., 3). Raises if any frame's ankle is out of reach, too
    close to the hip, or straight ahead of it; the message quotes the worst
    frame's distance.
    """
    hip = np.asarray(hip, dtype=float)
    ankle = np.asarray(ankle, dtype=float)
    chord = ankle - hip
    d = _norm(chord)
    reach = len1 + len2
    if (d > reach * (1.0 - 1e-9)).any():
        raise ValueError(
            f"ankle target out of reach: |hip-ankle|={d.max():.4f}, max={reach:.4f}")
    if (d < abs(len1 - len2) + 1e-6).any():
        raise ValueError(f"ankle target too close to hip: |hip-ankle|={d.min():.4f}")
    c_hat = chord / d[..., None]
    n = np.cross(FORWARD, c_hat)
    n_norm = _norm(n)
    if (n_norm < 1e-8).any():
        raise ValueError("bend hint is parallel to the leg chord")
    n_hat = n / n_norm[..., None]
    m_hat = np.cross(n_hat, c_hat)
    a = (len1 ** 2 - len2 ** 2 + d * d) / (2.0 * d)
    h = np.sqrt(np.maximum(len1 ** 2 - a * a, 0.0))
    h = np.where(_dot(m_hat, FORWARD) >= 0.0, h, -h)   # bend toward FORWARD
    return hip + a[..., None] * c_hat + h[..., None] * m_hat


def solve_leg(skeleton, side, hip_world, ankle_target):
    """Joint angles (hip, knee, ankle), each (..., 3), putting the ankle at
    ankle_target.

    hip_world, ankle_target: (..., 3). The foot stays flat: its world
    rotation is the identity. The root is unrotated, so the hip's local
    rotation is its world rotation. Assumes the given joints form a
    hip->knee->ankle chain with the rest thigh/shank both pointing straight
    down.
    """
    len1 = skeleton.bone_lengths[skeleton.joint_id(f"{side}_knee")]
    len2 = skeleton.bone_lengths[skeleton.joint_id(f"{side}_ankle")]
    hip_world = np.asarray(hip_world, dtype=float)
    ankle_target = np.asarray(ankle_target, dtype=float)
    knee = two_bone_ik(hip_world, ankle_target, len1, len2)

    thigh = (knee - hip_world) / len1
    shank = (ankle_target - knee) / len2
    n = np.cross(FORWARD, ankle_target - hip_world)
    n_hat = n / _norm(n)[..., None]

    # world rotation of the hip: rest thigh (0,0,-1) -> thigh, lateral axis -> n_hat
    w_hip = np.stack([np.cross(n_hat, -thigh), n_hat, -thigh], axis=-1)

    # knee bends about the shared lateral axis
    cosb = np.clip(_dot(thigh, shank), -1.0, 1.0)
    sinb = _dot(np.cross(thigh, shank), n_hat)
    knee_angles = np.zeros(knee.shape)
    knee_angles[..., 1] = np.arctan2(sinb, cosb)

    w_knee = w_hip @ euler_to_matrix(knee_angles)
    return (
        matrix_to_euler(w_hip),
        knee_angles,
        matrix_to_euler(np.swapaxes(w_knee, -1, -2)),
    )


def arms_down_angles(skeleton, n_frames):
    """Joint-angle array for a neutral pose with arms hanging at the sides."""
    angles = np.zeros((n_frames, skeleton.n_joints, 3))
    angles[:, skeleton.joint_id("left_shoulder")] = (-np.pi / 2, 0.0, 0.0)
    angles[:, skeleton.joint_id("right_shoulder")] = (np.pi / 2, 0.0, 0.0)
    return angles
