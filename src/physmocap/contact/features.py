"""Classifier input features from 2D keypoints."""
from __future__ import annotations

import numpy as np

from ..core.skeleton import LOWER_BODY_JOINT_NAMES

WINDOW = 9              # input frames per window, centered on the target
PRED_WINDOW = 5         # output frames per window, centered on the target
N_JOINTS = len(LOWER_BODY_JOINT_NAMES)   # 13
FEATURE_DIM = WINDOW * N_JOINTS * 3      # 351
FEATURE_SCALE = 0.005   # pixels to feature units


def window_frames(target, n_frames):
    """Frame indices of the window, clamped to the sequence (edge replication)."""
    half = WINDOW // 2
    return np.clip(np.arange(target - half, target + half + 1), 0, n_frames - 1)


def make_features(seq, target_frame):
    """Feature vector for one target frame: (x, y, conf) of the 13 lower-body
    joints over the 9-frame window, positions taken relative to the target
    frame's pelvis and scaled to roughly [-1, 1].

    Layout is frame-major then joint, channels (x, y, conf) last.
    """
    return make_features_batch(seq, np.array([target_frame]))[0]


def make_features_batch(seq, targets):
    """Feature matrix for many target frames at once. len(targets) x 351."""
    ids = [seq.joint_id(n) for n in LOWER_BODY_JOINT_NAMES]
    xy = seq.joints2d[:, ids]          # T x 13 x 2
    conf = seq.conf[:, ids]            # T x 13
    root = seq.joints2d[:, seq.joint_id("pelvis")]   # T x 2
    targets = np.asarray(targets, dtype=int)
    frames = np.stack([window_frames(t, seq.n_frames) for t in targets])  # N x 9
    rel = (xy[frames] - root[targets][:, None, None, :]) * FEATURE_SCALE  # N x 9 x 13 x 2
    feats = np.concatenate([rel, conf[frames][..., None]], axis=-1)       # N x 9 x 13 x 3
    return feats.reshape(len(targets), FEATURE_DIM)


def position_feature_mask():
    """Boolean mask over the 351 features marking the (x, y) entries."""
    mask = np.zeros((WINDOW, N_JOINTS, 3), dtype=bool)
    mask[..., :2] = True
    return mask.reshape(-1)


def window_labels(contacts, target_frame):
    """Training target for one window: labels of the 5 output frames (flattened
    frame-major, 4 joints each) plus a validity mask for frames outside the clip."""
    T = contacts.n_frames
    half = PRED_WINDOW // 2
    y = np.zeros((PRED_WINDOW, 4))
    mask = np.zeros((PRED_WINDOW, 4), dtype=bool)
    for k in range(PRED_WINDOW):
        t = target_frame - half + k
        if 0 <= t < T:
            y[k] = contacts.labels[t]
            mask[k] = True
    return y.reshape(-1), mask.reshape(-1)
