import numpy as np
import pytest

from physmocap.core.kinematics import compute_com_inertia, fk_positions_rotations
from physmocap.core.rotation import wrap_angle
from physmocap.fullbody import upgrade_fullbody
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript


class _EchoTrajectory:
    """Duck-typed reduced trajectory that replays fixed tracks."""

    def __init__(self, r, theta, feet):
        self._r, self._theta, self._feet = r, theta, feet

    def sample(self, times):
        return {"r": self._r.copy(), "theta": self._theta.copy(),
                "feet": self._feet.copy()}


@pytest.fixture(scope="module")
def stand_clip():
    return generate(MotionScript(name="s", kind="stand", duration=1.0), seed=7)


def _echo_of(motion):
    states = compute_com_inertia(motion)
    positions, _ = fk_positions_rotations(
        motion.skeleton, motion.root_pos, motion.joint_angles)
    feet = positions[:, list(motion.skeleton.foot_joint_ids)]
    return _EchoTrajectory(states.r, states.theta, feet), positions


def test_upgrade_is_fixed_point_on_own_trajectory(stand_clip):
    motion = stand_clip.motion
    traj, _ = _echo_of(motion)
    out = upgrade_fullbody(motion, traj)
    diff = np.abs(wrap_angle(out.joint_angles - motion.joint_angles))
    assert diff.max() < 1e-6
    assert np.abs(out.root_pos - motion.root_pos).max() < 1e-6


def test_upgrade_follows_com_shift_with_feet_pinned(stand_clip):
    motion = stand_clip.motion
    skel = motion.skeleton
    traj, positions = _echo_of(motion)
    d = 0.05 * stand_clip.floor.normal      # 5 cm straight up
    traj._r = traj._r + d
    out = upgrade_fullbody(motion, traj)
    new_pos, _ = fk_positions_rotations(skel, out.root_pos, out.joint_angles)

    neck = skel.joint_id("neck")
    moved = new_pos[:, neck] - positions[:, neck]
    assert np.abs(moved - d).max() < 0.015

    feet = list(skel.foot_joint_ids)
    foot_err = np.linalg.norm(new_pos[:, feet] - positions[:, feet], axis=2)
    assert foot_err.max() < 0.002


def test_upgrade_warns_and_projects_unreachable_feet(stand_clip):
    motion = stand_clip.motion
    traj, positions = _echo_of(motion)
    sunk = traj._feet.copy()
    sunk[:, :, :] = positions[:, list(motion.skeleton.foot_joint_ids)]
    sunk -= 2.0 * stand_clip.floor.normal   # 2 m below: beyond any leg
    traj._feet = sunk
    with pytest.warns(UserWarning, match="reach"):
        out = upgrade_fullbody(motion, traj)
    assert np.isfinite(out.root_pos).all() and np.isfinite(out.joint_angles).all()
