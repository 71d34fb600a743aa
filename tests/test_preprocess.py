from __future__ import annotations

import numpy as np
import pytest

from physmocap.core.preprocess import preprocess_low_confidence
from physmocap.core.skeleton import JOINT_NAMES
from physmocap.core.types import PoseSequence


def _seq(conf, joints3d):
    T, J = conf.shape
    return PoseSequence(joint_names=JOINT_NAMES[:J], fps=30.0,
                        joints2d=np.zeros((T, J, 2)), conf=conf, joints3d=joints3d)


def test_interior_run_interpolated_linearly():
    T, J = 8, 3
    conf = np.ones((T, J))
    conf[3:6, 1] = 0.0
    joints3d = np.zeros((T, J, 3))
    joints3d[:, 1, 0] = np.arange(T, dtype=float) ** 2   # nonlinear so interp shows
    out = preprocess_low_confidence(_seq(conf, joints3d))
    # frames 3..5 must be linear between frames 2 (value 4) and 6 (value 36)
    expected = 4.0 + (36.0 - 4.0) * np.array([1, 2, 3]) / 4.0
    assert np.allclose(out.joints3d[3:6, 1, 0], expected, atol=1e-12)
    # confident frames untouched
    assert np.array_equal(out.joints3d[:3, 1], joints3d[:3, 1])
    assert np.array_equal(out.joints3d[6:, 1], joints3d[6:, 1])
    # other joints untouched
    assert np.array_equal(out.joints3d[:, 0], joints3d[:, 0])


def test_boundary_run_copies_nearest_confident_frame():
    T, J = 6, 2
    conf = np.ones((T, J))
    conf[:2, 0] = 0.1
    conf[-1, 0] = 0.0
    joints3d = np.zeros((T, J, 3))
    joints3d[:, 0, 1] = [9.0, 9.0, 2.0, 3.0, 4.0, 9.0]
    out = preprocess_low_confidence(_seq(conf, joints3d))
    assert np.allclose(out.joints3d[0, 0, 1], 2.0)
    assert np.allclose(out.joints3d[1, 0, 1], 2.0)
    assert np.allclose(out.joints3d[-1, 0, 1], 4.0)


def test_joint_with_no_confident_frame_raises():
    T, J = 4, 2
    conf = np.ones((T, J))
    conf[:, 1] = 0.0
    with pytest.raises(ValueError, match=JOINT_NAMES[1]):
        preprocess_low_confidence(_seq(conf, np.zeros((T, J, 3))))


def test_all_confident_is_identity():
    T, J = 5, 2
    rng = np.random.default_rng(7)
    joints3d = rng.normal(size=(T, J, 3))
    out = preprocess_low_confidence(_seq(np.ones((T, J)), joints3d))
    assert np.array_equal(out.joints3d, joints3d)
