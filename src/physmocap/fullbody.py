"""Full-body recovery from the reduced trajectory.

The reduced optimization outputs center-of-mass, orientation and foot-joint
tracks. upgrade_fullbody rebuilds a joint-angle motion around them: every
upper-body joint is targeted at its original offset from the COM carried to
the new COM, the toe and heel joints are targeted at the optimized contact
tracks, and the hip/knee/ankle chain is left free for the IK to place.
One ik_solve_frame call, a batch solver despite its name, fits every frame.
"""
from __future__ import annotations

import warnings

import numpy as np

from .core.ik import ik_solve_frame
from .core.kinematics import compute_com_inertia, forward_kinematics
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
    kinematic pose carried to the new COM and orientation; all frames go to
    ik_solve_frame as one batch. A foot target beyond its own chain's reach
    (SkeletonModel.l_leg) is projected back onto that sphere around its hip;
    such frames are reported once with a count.
    """
    skeleton = kin_motion.skeleton
    positions = forward_kinematics(kin_motion)
    out = traj.sample(np.arange(kin_motion.n_frames) / kin_motion.fps)
    shift = out["r"] - compute_com_inertia(kin_motion).r

    targets = positions + shift[:, None, :]
    hips = targets[:, list(skeleton.foot_hip_ids)]
    feet = np.array(out["feet"], dtype=float)
    d = feet - hips
    reach = np.linalg.norm(d, axis=-1)
    l_leg = np.array(skeleton.l_leg)    # per foot joint, its own chain
    far = reach > l_leg
    feet[far] = hips[far] + d[far] * (l_leg / reach)[far, None] * (1.0 - 1e-9)
    targets[:, list(skeleton.foot_joint_ids)] = feet
    angles0 = kin_motion.joint_angles.copy()
    angles0[:, 0] = out["theta"]
    root_out, ang_out = ik_solve_frame(skeleton, targets, _upgrade_weights(skeleton),
                                       kin_motion.root_pos + shift, angles0)
    if far.any():
        warnings.warn(f"{np.count_nonzero(far.any(axis=1))} frames had foot targets "
                      "beyond leg reach; projected onto the reachable sphere")
    return JointAngleMotion(skeleton, kin_motion.fps, root_out, ang_out)
