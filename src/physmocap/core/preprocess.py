"""Input cleanup before any optimization."""
from __future__ import annotations

import numpy as np

from dataclasses import replace

CONF_THRESHOLD = 0.3   # detections below this confidence are interpolated over


def preprocess_low_confidence(seq):
    """Replace 3D positions of low-confidence detections by linear interpolation.

    Works per joint: frames with conf < CONF_THRESHOLD get joints3d interpolated in
    time between the nearest confident frames of that joint; runs touching the
    sequence boundary copy the nearest confident frame. A joint with no
    confident frame at all is an error.
    """
    conf = seq.conf
    T, J = conf.shape
    out = seq.joints3d.copy()
    for j in range(J):
        good = conf[:, j] >= CONF_THRESHOLD
        if good.all():
            continue
        if not good.any():
            raise ValueError(
                f"joint {seq.joint_names[j]!r} has no frame with confidence >= "
                f"{CONF_THRESHOLD}; cannot interpolate")
        idx = np.nonzero(good)[0]
        t = np.arange(T)
        for d in range(3):
            out[:, j, d] = np.interp(t, idx, seq.joints3d[idx, j, d])
    return replace(seq, joints3d=out)
