"""Initial skeleton scale and pose from the raw 3D estimates."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.ik import ik_solve_sequence

MIN_CONF = 0.3   # bone samples need both endpoints at least this confident
IK_ITERS = 60    # per-frame IK iterations of the initial fit


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
    """Scaled skeleton + per-frame IK fit to the 3D estimates.

    Returns (skeleton, root_pos, joint_angles).
    """
    skeleton = replace(skeleton, bone_lengths=estimate_bone_lengths(seq, skeleton))
    weights = np.clip(seq.conf, 0.05, 1.0)
    root, angles, _ = ik_solve_sequence(skeleton, seq.joints3d, weights,
                                        max_iters=IK_ITERS)
    return skeleton, root, angles
