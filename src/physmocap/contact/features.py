"""Classifier input features and training targets from 2D keypoints.

Window rule: slot k of target frame t's `size`-frame window holds frame
t + k - size // 2, so every window is centered on its target. window_frames
applies it to the input (WINDOW), the targets (PRED_WINDOW) and the vote.
"""
from __future__ import annotations

import numpy as np

from ..core.skeleton import LOWER_BODY_JOINT_NAMES

WINDOW = 9              # input frames per window, centered on the target
PRED_WINDOW = 5         # output frames per window, centered on the target
N_JOINTS = len(LOWER_BODY_JOINT_NAMES)   # 13
FEATURE_DIM = WINDOW * N_JOINTS * 3      # 351
FEATURE_SCALE = 0.005   # pixels to feature units


def window_frames(targets, size, n_frames):
    """(frames, inside), both N x size: each target's window frames by the
    window rule, and whether each lies in [0, n_frames)."""
    targets = np.asarray(targets, dtype=int)
    frames = targets[:, None] + np.arange(size) - size // 2
    return frames, (frames >= 0) & (frames < n_frames)


def make_features_batch(seq, targets):
    """Feature matrix for many target frames at once, len(targets) x 351.

    Each row holds (x, y, conf) of the 13 lower-body joints over the target's
    9-frame window, positions taken relative to the target frame's pelvis and
    scaled to roughly [-1, 1]. Window frames outside the clip repeat the edge
    frame. Layout is frame-major then joint, channels (x, y, conf) last.
    """
    ids = [seq.joint_id(n) for n in LOWER_BODY_JOINT_NAMES]
    xy = seq.joints2d[:, ids]          # T x 13 x 2
    conf = seq.conf[:, ids]            # T x 13
    root = seq.joints2d[:, seq.joint_id("pelvis")]   # T x 2
    targets = np.asarray(targets, dtype=int)
    frames, _ = window_frames(targets, WINDOW, seq.n_frames)
    frames = np.clip(frames, 0, seq.n_frames - 1)                        # N x 9
    rel = (xy[frames] - root[targets][:, None, None, :]) * FEATURE_SCALE  # N x 9 x 13 x 2
    feats = np.concatenate([rel, conf[frames][..., None]], axis=-1)       # N x 9 x 13 x 3
    return feats.reshape(len(targets), FEATURE_DIM)


def position_feature_mask():
    """Boolean mask over the 351 features marking the (x, y) entries."""
    mask = np.zeros((WINDOW, N_JOINTS, 3), dtype=bool)
    mask[..., :2] = True
    return mask.reshape(-1)


def window_labels(contacts, targets):
    """Training targets (y, mask), both N x 20: the float labels of each
    target's 5 output frames, frame-major, 4 joints each. mask is False, and
    y is 0, for frames outside the clip."""
    frames, inside = window_frames(targets, PRED_WINDOW, contacts.n_frames)
    y = np.zeros(frames.shape + (4,))
    y[inside] = contacts.labels[frames[inside]]
    mask = np.repeat(inside[..., None], 4, axis=-1)
    return y.reshape(len(frames), -1), mask.reshape(len(frames), -1)
