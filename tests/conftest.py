from __future__ import annotations

import numpy as np
import pytest

from physmocap.core.skeleton import default_skeleton


@pytest.fixture
def skeleton():
    return default_skeleton()


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def random_motion(skeleton, rng, n_frames=4, fps=30.0, angle_scale=0.4):
    """Small random joint-angle motion, well away from gimbal lock."""
    from physmocap.core.types import JointAngleMotion

    J = skeleton.n_joints
    root = rng.normal(0.0, 0.5, (n_frames, 3)) + np.array([0.0, 0.0, 1.0])
    angles = rng.uniform(-angle_scale, angle_scale, (n_frames, J, 3))
    return JointAngleMotion(skeleton=skeleton, fps=fps, root_pos=root,
                            joint_angles=angles)
