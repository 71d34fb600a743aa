"""Initial skeleton scale, and a start pose from an IK fit of frame 0."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.ik import ik_solve_frame

MIN_CONF = 0.3   # bone samples need both endpoints at least this confident
IK_ITERS = 60    # iterations of the frame-0 fit


def estimate_bone_lengths(seq, skeleton):
    """Median observed parent-child distance per bone.

    Frames where either endpoint has low confidence are skipped; bones never
    observed confidently keep the rest-pose length.
    """
    lengths = skeleton.bone_lengths.copy()
    for j in range(1, skeleton.n_joints):
        par = skeleton.parents[j]
        ok = (seq.conf[:, j] >= MIN_CONF) & (seq.conf[:, par] >= MIN_CONF)
        if not np.any(ok):
            continue
        d = np.linalg.norm(seq.joints3d[ok, j] - seq.joints3d[ok, par], axis=-1)
        med = float(np.median(d))
        if med > 1e-6:
            lengths[j] = med
    return lengths


def initialize_from_3d(seq, skeleton):
    """Scaled skeleton + the LM's start: frame 0's IK fit, every frame.

    Frame 0 is fitted from the rest pose at its estimated pelvis. Every frame
    takes that fit's angles, with root[t] = root[0] + pelvis[t] - pelvis[0].

    Returns (skeleton, root_pos, joint_angles).
    """
    skeleton = replace(skeleton, bone_lengths=estimate_bone_lengths(seq, skeleton))
    pelvis = seq.joints3d[:, 0]
    root0, angles0, _ = ik_solve_frame(
        skeleton, seq.joints3d[0], np.clip(seq.conf[0], 0.05, 1.0), pelvis[0],
        np.zeros((skeleton.n_joints, 3)), max_iters=IK_ITERS)
    root = root0 + (pelvis - pelvis[0])
    angles = np.repeat(angles0[None], len(pelvis), axis=0)
    return skeleton, root, angles
