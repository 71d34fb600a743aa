from __future__ import annotations

import numpy as np

from physmocap.contact.heuristic import (
    heuristic_label,
    velocity_baseline_2d,
    velocity_baseline_3d,
)
from physmocap.core.kinematics import forward_kinematics, transform_motion
from physmocap.core.rotation import euler_to_matrix
from physmocap.core.skeleton import JOINT_NAMES
from physmocap.core.types import FloorPlane, JointAngleMotion, PoseSequence


def _standing_motion(skeleton, T=10, root_z=None):
    if root_z is None:
        rest = skeleton.rest_positions()
        root_z = -rest[skeleton.foot_joint_ids[0]][2]   # feet exactly on z=0
    root = np.tile([0.0, 0.0, root_z], (T, 1))
    return JointAngleMotion(skeleton=skeleton, fps=30.0, root_pos=root,
                            joint_angles=np.zeros((T, skeleton.n_joints, 3)))


def test_standing_still_is_all_contact(skeleton):
    motion = _standing_motion(skeleton)
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    contacts = heuristic_label(motion, floor)
    assert contacts.labels.all()


def test_elevated_feet_are_flight(skeleton):
    motion = _standing_motion(skeleton)
    motion = motion.with_frames(motion.root_pos + [0.0, 0.0, 0.5],
                                motion.joint_angles)
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    contacts = heuristic_label(motion, floor)
    assert not contacts.labels.any()


def test_fast_horizontal_motion_is_flight(skeleton):
    motion = _standing_motion(skeleton, T=8)
    root = motion.root_pos.copy()
    root[:, 0] = np.arange(8) * 0.05   # 5 cm per frame
    motion = motion.with_frames(root, motion.joint_angles)
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    contacts = heuristic_label(motion, floor)
    assert not contacts.labels.any()


def test_frame0_copies_frame1_motion_test(skeleton):
    # frames 0..1 still, then motion: frame 0 must be labeled from frame 1's
    # displacement (zero), so it stays in contact
    motion = _standing_motion(skeleton, T=6)
    root = motion.root_pos.copy()
    root[2:, 0] = np.arange(1, 5) * 0.05
    motion = motion.with_frames(root, motion.joint_angles)
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    contacts = heuristic_label(motion, floor)
    assert contacts.labels[0].all()
    assert contacts.labels[1].all()
    assert not contacts.labels[3:].any()


def test_one_standing_frame_is_all_contact(skeleton):
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    contacts = heuristic_label(_standing_motion(skeleton, T=1), floor)
    assert contacts.labels.shape == (1, 4) and contacts.labels.all()


def test_heuristic_invariant_under_rigid_rotation(skeleton, rng):
    motion = _standing_motion(skeleton, T=12)
    root = motion.root_pos.copy()
    root[:, 2] += 0.03 * np.sin(np.arange(12) / 3.0)    # mild bob
    root[6:, 0] += np.arange(6) * 0.04
    motion = motion.with_frames(root, motion.joint_angles)
    floor = FloorPlane(normal=[0, 0, 1.0], point=[0, 0, 0])
    base = heuristic_label(motion, floor)

    R = euler_to_matrix(rng.uniform(-np.pi, np.pi, 3))
    t = rng.normal(0, 2.0, 3)
    motion_r = transform_motion(motion, R, t)
    floor_r = floor.transformed(R, t)
    rotated = heuristic_label(motion_r, floor_r)
    assert np.array_equal(base.labels, rotated.labels)


def _pose_from_positions(pos3d, fps=30.0):
    T, J = pos3d.shape[:2]
    return PoseSequence(joint_names=JOINT_NAMES[:J], fps=fps,
                        joints2d=np.zeros((T, J, 2)), conf=np.ones((T, J)),
                        joints3d=pos3d)


def test_velocity_baseline_3d_thresholds_displacement(skeleton):
    motion = _standing_motion(skeleton, T=6)
    pos = forward_kinematics(motion)
    pos[:, :, 0] += 0.01 * np.arange(6)[:, None]   # 1 cm per frame: contact
    pos[3:, :, 0] += 0.02   # frame 3 moves 3 cm: flight
    seq = _pose_from_positions(pos)
    contacts = velocity_baseline_3d(seq)
    assert contacts.labels[:3].all()
    assert not contacts.labels[3].any()
    assert contacts.labels[4:].all()   # still again afterwards


def test_velocity_baseline_2d_uses_pixels(skeleton):
    T, J = 5, 28

    def labels(px_per_frame):
        joints2d = np.zeros((T, J, 2))
        joints2d[:, :, 0] = np.arange(T)[:, None] * px_per_frame
        seq = PoseSequence(joint_names=JOINT_NAMES, fps=30.0, joints2d=joints2d,
                           conf=np.ones((T, J)), joints3d=np.zeros((T, J, 3)))
        return velocity_baseline_2d(seq).labels

    assert not labels(8.0).any()
    assert labels(4.0).all()
