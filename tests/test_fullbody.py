import re

import numpy as np
import pytest

from physmocap.core.kinematics import compute_com_inertia, fk_positions_rotations
from physmocap.core.rotation import wrap_angle
from physmocap.fullbody import upgrade_fullbody
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript


@pytest.fixture(scope="module")
def stand_clip():
    return generate(MotionScript(name="s", kind="stand", duration=1.0), seed=7)


def _echo_of(motion):
    """The motion's own reduced tracks, as CentroidalTrajectory.sample
    returns them at the frames, and its joint positions."""
    states = compute_com_inertia(motion)
    positions, _ = fk_positions_rotations(
        motion.skeleton, motion.root_pos, motion.joint_angles)
    feet = positions[:, list(motion.skeleton.foot_joint_ids)]
    return {"r": states.r.copy(), "theta": states.theta.copy(), "feet": feet}, positions


def test_upgrade_is_fixed_point_on_own_trajectory(stand_clip):
    motion = stand_clip.motion
    samples, _ = _echo_of(motion)
    out = upgrade_fullbody(motion, compute_com_inertia(motion), samples)
    diff = np.abs(wrap_angle(out.joint_angles - motion.joint_angles))
    assert diff.max() < 1e-6
    assert np.abs(out.root_pos - motion.root_pos).max() < 1e-6


def test_upgrade_follows_com_shift_with_feet_pinned(stand_clip):
    motion = stand_clip.motion
    skel = motion.skeleton
    samples, positions = _echo_of(motion)
    d = 0.05 * stand_clip.floor.normal      # 5 cm straight up
    samples["r"] = samples["r"] + d
    out = upgrade_fullbody(motion, compute_com_inertia(motion), samples)
    new_pos, _ = fk_positions_rotations(skel, out.root_pos, out.joint_angles)

    neck = skel.joint_id("neck")
    moved = new_pos[:, neck] - positions[:, neck]
    assert np.abs(moved - d).max() < 0.015

    feet = list(skel.foot_joint_ids)
    foot_err = np.linalg.norm(new_pos[:, feet] - positions[:, feet], axis=2)
    assert foot_err.max() < 0.002


def test_upgrade_warns_and_projects_unreachable_feet(stand_clip):
    motion = stand_clip.motion
    samples, positions = _echo_of(motion)
    sunk = samples["feet"].copy()
    sunk[:, :, :] = positions[:, list(motion.skeleton.foot_joint_ids)]
    sunk -= 2.0 * stand_clip.floor.normal   # 2 m below: beyond any leg
    samples["feet"] = sunk
    with pytest.warns(UserWarning, match="reach") as record:
        out = upgrade_fullbody(motion, compute_com_inertia(motion), samples)
    # the bench parses this count from the message: keep its wording
    counts = [re.match(r"(\d+) frames had foot targets beyond leg reach",
                       str(w.message)) for w in record]
    assert [int(m.group(1)) for m in counts if m] == [motion.n_frames]
    assert np.isfinite(out.root_pos).all() and np.isfinite(out.joint_angles).all()
