"""Analytic leg posing for the synthetic generator.

Two-bone IK with an explicit bend plane: given hip and ankle positions, the
knee is placed on the circle of reachable points, bending toward a forward
hint direction. Joint angles are recovered from the resulting world rotations,
so forward kinematics reproduces the planned ankle exactly.
"""
from __future__ import annotations

import numpy as np

from ..core.rotation import euler_to_matrix, matrix_to_euler

ANKLE_DROP = 0.070  # flat-foot ankle height above the sole plane
FORWARD = np.array([1.0, 0.0, 0.0])   # the knee bends toward this hint


def two_bone_ik(hip, ankle, len1, len2):
    """Knee position for a hip->knee->ankle chain bending toward FORWARD."""
    hip = np.asarray(hip, dtype=float)
    ankle = np.asarray(ankle, dtype=float)
    chord = ankle - hip
    d = np.linalg.norm(chord)
    reach = len1 + len2
    if d > reach * (1.0 - 1e-9):
        raise ValueError(f"ankle target out of reach: |hip-ankle|={d:.4f}, max={reach:.4f}")
    if d < abs(len1 - len2) + 1e-6:
        raise ValueError(f"ankle target too close to hip: |hip-ankle|={d:.4f}")
    c_hat = chord / d
    n = np.cross(FORWARD, c_hat)
    n_norm = np.linalg.norm(n)
    if n_norm < 1e-8:
        raise ValueError("bend hint is parallel to the leg chord")
    n_hat = n / n_norm
    m_hat = np.cross(n_hat, c_hat)
    a = (len1 ** 2 - len2 ** 2 + d * d) / (2.0 * d)
    h = np.sqrt(max(len1 ** 2 - a * a, 0.0))
    base = hip + a * c_hat
    k1 = base + h * m_hat
    k2 = base - h * m_hat
    return k1 if np.dot(k1 - base, FORWARD) >= np.dot(k2 - base, FORWARD) else k2


def solve_leg(skeleton, side, hip_world, ankle_target):
    """Joint angles (hip, knee, ankle) putting the ankle at ankle_target.

    The foot stays flat: its world rotation is the identity. The root is
    unrotated, so the hip's local rotation is its world rotation. Assumes the
    given joints form a hip->knee->ankle chain with the rest thigh/shank both
    pointing straight down.
    """
    len1 = skeleton.bone_lengths[skeleton.joint_id(f"{side}_knee")]
    len2 = skeleton.bone_lengths[skeleton.joint_id(f"{side}_ankle")]
    hip_world = np.asarray(hip_world, dtype=float)
    ankle_target = np.asarray(ankle_target, dtype=float)
    knee = two_bone_ik(hip_world, ankle_target, len1, len2)

    thigh = (knee - hip_world) / len1
    shank = (ankle_target - knee) / len2
    n = np.cross(FORWARD, ankle_target - hip_world)
    n_hat = n / np.linalg.norm(n)

    # world rotation of the hip: rest thigh (0,0,-1) -> thigh, lateral axis -> n_hat
    z_axis = -thigh
    y_axis = n_hat
    x_axis = np.cross(y_axis, z_axis)
    w_hip = np.stack([x_axis, y_axis, z_axis], axis=1)

    # knee bends about the shared lateral axis
    cosb = np.clip(np.dot(thigh, shank), -1.0, 1.0)
    sinb = np.dot(np.cross(thigh, shank), n_hat)
    beta = np.arctan2(sinb, cosb)

    w_knee = w_hip @ euler_to_matrix(np.array([0.0, beta, 0.0]))
    return (
        matrix_to_euler(w_hip),
        np.array([0.0, beta, 0.0]),
        matrix_to_euler(w_knee.T),
    )


def arms_down_angles(skeleton, n_frames):
    """Joint-angle array for a neutral pose with arms hanging at the sides."""
    angles = np.zeros((n_frames, skeleton.n_joints, 3))
    angles[:, skeleton.joint_id("left_shoulder")] = (-np.pi / 2, 0.0, 0.0)
    angles[:, skeleton.joint_id("right_shoulder")] = (np.pi / 2, 0.0, 0.0)
    return angles
