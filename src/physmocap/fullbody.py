"""Full-body recovery from the reduced trajectory.

The reduced optimization outputs center-of-mass, orientation and foot-joint
tracks. upgrade_fullbody rebuilds a joint-angle motion around them: every
upper-body joint is targeted at its original offset from the COM carried to
the new COM, the toe and heel joints are targeted at the optimized contact
tracks, and the hip/knee/ankle chain is left free for the IK to place.
"""
from __future__ import annotations

import warnings

import numpy as np

from .core.ik import ik_solve_frame
from .core.kinematics import compute_com_inertia, fk_positions_rotations
from .core.types import JointAngleMotion

FOOT_TARGET_WEIGHT = 10.0
LEG_JOINT_NAMES = ("left_hip", "left_knee", "left_ankle",
                   "right_hip", "right_knee", "right_ankle")
FREE_END_NAMES = ("left_toe_end", "right_toe_end")


def _upgrade_weights(skeleton):
    names = list(skeleton.joint_names)
    w = np.ones(skeleton.n_joints)
    for name in LEG_JOINT_NAMES + FREE_END_NAMES:
        w[names.index(name)] = 0.0
    for j in skeleton.foot_joint_ids:
        w[j] = FOOT_TARGET_WEIGHT
    return w


def upgrade_fullbody(kin_motion, traj):
    """Rebuild a full-body motion around the optimized reduced trajectory.

    Each frame is solved by damped least-squares IK, warm-started from the
    kinematic pose carried to the new COM and orientation. Foot targets
    beyond leg reach are projected back onto the reachable sphere around
    the hip and reported once with a frame count.
    """
    skeleton = kin_motion.skeleton
    T = kin_motion.n_frames
    times = np.arange(T) / kin_motion.fps
    positions, _ = fk_positions_rotations(
        skeleton, kin_motion.root_pos, kin_motion.joint_angles)
    r_old = compute_com_inertia(kin_motion).r
    out = traj.sample(times)
    shift = out["r"] - r_old
    theta = out["theta"]

    targets = positions + shift[:, None, :]
    foot_ids = list(skeleton.foot_joint_ids)
    targets[:, foot_ids] = out["feet"]
    weights = _upgrade_weights(skeleton)

    root_out = np.empty((T, 3))
    ang_out = np.empty_like(kin_motion.joint_angles)
    clipped_frames = 0
    for t in range(T):
        root0 = kin_motion.root_pos[t] + shift[t]
        angles0 = kin_motion.joint_angles[t].copy()
        angles0[0] = theta[t]
        hips = positions[t, list(skeleton.foot_hip_ids)] + shift[t]
        clipped = False
        for hip, j in zip(hips, foot_ids):
            d = targets[t, j] - hip
            reach = np.linalg.norm(d)
            if reach > skeleton.l_leg:
                targets[t, j] = hip + d * (skeleton.l_leg / reach) * (1.0 - 1e-9)
                clipped = True
        clipped_frames += clipped
        root_out[t], ang_out[t], _ = ik_solve_frame(
            skeleton, targets[t], weights, root0, angles0)
    if clipped_frames:
        warnings.warn(f"{clipped_frames} frames had foot targets beyond leg "
                      "reach; projected onto the reachable sphere")
    return JointAngleMotion(skeleton, kin_motion.fps, root_out, ang_out)
