"""Euler angle rotations (intrinsic Z-Y-X) and their derivatives.

Angles are stored as (ax, ay, az) and compose as R = Rz(az) @ Ry(ay) @ Rx(ax).
The same convention is used for every joint and for the centroidal orientation,
so the Euler-rate kinematic map lives here too.
"""
from __future__ import annotations

import numpy as np

# basis vectors, used in a few axis formulas below
_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


def skew(v):
    """Cross-product matrix [v]x such that skew(v) @ w == cross(v, w)."""
    v = np.asarray(v)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def euler_to_matrix(angles):
    """Rotation matrix for intrinsic Z-Y-X Euler angles.

    angles: (..., 3) as (ax, ay, az). Returns (..., 3, 3).
    """
    angles = np.asarray(angles)
    ax, ay, az = angles[..., 0], angles[..., 1], angles[..., 2]
    ca, sa = np.cos(ax), np.sin(ax)
    cb, sb = np.cos(ay), np.sin(ay)
    cc, sc = np.cos(az), np.sin(az)
    R = np.empty(angles.shape[:-1] + (3, 3))
    R[..., 0, 0] = cc * cb
    R[..., 0, 1] = cc * sb * sa - sc * ca
    R[..., 0, 2] = cc * sb * ca + sc * sa
    R[..., 1, 0] = sc * cb
    R[..., 1, 1] = sc * sb * sa + cc * ca
    R[..., 1, 2] = sc * sb * ca - cc * sa
    R[..., 2, 0] = -sb
    R[..., 2, 1] = cb * sa
    R[..., 2, 2] = cb * ca
    return R


def matrix_to_euler(R, eps=1e-8):
    """Inverse of euler_to_matrix. Near gimbal lock (|ay| ~ pi/2) ax is set to 0."""
    R = np.asarray(R)
    sy = -R[..., 2, 0]
    sy_c = np.clip(sy, -1.0, 1.0)
    ay = np.arcsin(sy_c)
    cb = np.sqrt(np.maximum(0.0, 1.0 - sy_c * sy_c))
    regular = cb > eps
    ax = np.where(regular, np.arctan2(R[..., 2, 1], R[..., 2, 2]), 0.0)
    az = np.where(
        regular,
        np.arctan2(R[..., 1, 0], R[..., 0, 0]),
        np.arctan2(-R[..., 0, 1], R[..., 1, 1]),
    )
    return np.stack([ax, ay, az], axis=-1)


def euler_rotation_axes(angles):
    """World-frame rotation axes of the three Euler components.

    Column k is the axis such that dR/d(angle_k) = skew(axis_k) @ R; for a
    jointed chain the parent world rotation premultiplies these. The same
    matrix maps Euler rates to world angular velocity: omega = axes @ d(angles)/dt.

    Returns (..., 3, 3) with columns ordered (ax, ay, az).
    """
    angles = np.asarray(angles)
    ay, az = angles[..., 1], angles[..., 2]
    cb, sb = np.cos(ay), np.sin(ay)
    cc, sc = np.cos(az), np.sin(az)
    A = np.empty(angles.shape[:-1] + (3, 3))
    # column 0: Rz @ Ry @ ex
    A[..., 0, 0] = cb * cc
    A[..., 1, 0] = cb * sc
    A[..., 2, 0] = -sb
    # column 1: Rz @ ey
    A[..., 0, 1] = -sc
    A[..., 1, 1] = cc
    A[..., 2, 1] = 0.0
    # column 2: ez
    A[..., 0, 2] = 0.0
    A[..., 1, 2] = 0.0
    A[..., 2, 2] = 1.0
    return A


def euler_rotation_axes_grad(angles):
    """d(euler_rotation_axes)/d(angles): (..., 3, 3, 3), last index = which angle."""
    angles = np.asarray(angles)
    ay, az = angles[..., 1], angles[..., 2]
    cb, sb = np.cos(ay), np.sin(ay)
    cc, sc = np.cos(az), np.sin(az)
    G = np.zeros(angles.shape[:-1] + (3, 3, 3))
    # d(col 0)/d(ay)
    G[..., 0, 0, 1] = -sb * cc
    G[..., 1, 0, 1] = -sb * sc
    G[..., 2, 0, 1] = -cb
    # d(col 0)/d(az)
    G[..., 0, 0, 2] = -cb * sc
    G[..., 1, 0, 2] = cb * cc
    # d(col 1)/d(az)
    G[..., 0, 1, 2] = -cc
    G[..., 1, 1, 2] = -sc
    return G


def euler_rotation_axes_hess(angles):
    """Second derivatives of euler_rotation_axes: (..., 3, 3, 3, 3).

    Index layout [..., i, col, k, m] = d^2 A[i, col] / d(angle_k) d(angle_m).
    Only the (ay, az) block of column 0 and the az^2 entry of column 1 are
    nonzero.
    """
    angles = np.asarray(angles)
    ay, az = angles[..., 1], angles[..., 2]
    cb, sb = np.cos(ay), np.sin(ay)
    cc, sc = np.cos(az), np.sin(az)
    H = np.zeros(angles.shape[:-1] + (3, 3, 3, 3))
    # col 0, d2/day2 = -col0
    H[..., 0, 0, 1, 1] = -cb * cc
    H[..., 1, 0, 1, 1] = -cb * sc
    H[..., 2, 0, 1, 1] = sb
    # col 0, d2/day daz (symmetric)
    H[..., 0, 0, 1, 2] = sb * sc
    H[..., 1, 0, 1, 2] = -sb * cc
    H[..., 0, 0, 2, 1] = sb * sc
    H[..., 1, 0, 2, 1] = -sb * cc
    # col 0, d2/daz2
    H[..., 0, 0, 2, 2] = -cb * cc
    H[..., 1, 0, 2, 2] = -cb * sc
    # col 1, d2/daz2 = -col1
    H[..., 0, 1, 2, 2] = sc
    H[..., 1, 1, 2, 2] = -cc
    return H


def euler_to_matrix_grad(angles):
    """dR/d(angles): (..., 3, 3, 3), last index picks the angle component."""
    R = euler_to_matrix(angles)
    axes = euler_rotation_axes(angles)
    out = np.empty(R.shape + (3,))
    for k in range(3):
        out[..., k] = skew(axes[..., k]) @ R
    return out


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    a = np.asarray(a)
    out = np.mod(-a + np.pi, 2.0 * np.pi)
    return -(out - np.pi)
