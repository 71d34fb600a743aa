"""Rule-based contact labeling and the velocity-only baselines.

The heuristic needs a motion and a floor and is what generates training labels
for the classifier; the velocity baselines see only a pose sequence and exist
as comparison points.
"""
from __future__ import annotations

import numpy as np

from ..core.kinematics import forward_kinematics
from ..core.skeleton import CONTACT_JOINT_NAMES
from .sequence import ContactSequence

MOVE_TOL = 0.02     # meters per frame
HEIGHT_TOL = 0.05   # meters above the floor
BASELINE_2D_TOL = 5.0    # pixels per frame
BASELINE_3D_TOL = 0.02   # meters per frame


def heuristic_label(motion, floor):
    """A foot joint is in contact when it moved less than MOVE_TOL since the
    previous frame (the baselines' stillness test, _displacement_labels) and
    sits below HEIGHT_TOL above the floor."""
    pos = forward_kinematics(motion)[:, list(motion.skeleton.foot_joint_ids)]
    still = _displacement_labels(pos, MOVE_TOL, motion.fps).labels
    height = floor.height(pos)
    return ContactSequence(fps=motion.fps, labels=still & (height < HEIGHT_TOL))


def _displacement_labels(points, threshold, fps):
    """Contact iff per-frame displacement below threshold; frame 0 copies frame 1."""
    disp = np.linalg.norm(np.diff(points, axis=0), axis=2)
    if len(disp) == 0:
        labels = np.ones((1, points.shape[1]), dtype=bool)
    else:
        labels = np.concatenate([disp[:1], disp], axis=0) < threshold
    return ContactSequence(fps=fps, labels=labels)


def velocity_baseline_2d(seq):
    """2D pixel-velocity baseline over the four contact joints."""
    ids = [seq.joint_id(n) for n in CONTACT_JOINT_NAMES]
    return _displacement_labels(seq.joints2d[:, ids], BASELINE_2D_TOL, seq.fps)


def velocity_baseline_3d(seq):
    """3D velocity baseline on the (noisy) input joint positions."""
    ids = [seq.joint_id(n) for n in CONTACT_JOINT_NAMES]
    return _displacement_labels(seq.joints3d[:, ids], BASELINE_3D_TOL, seq.fps)
