from __future__ import annotations

import numpy as np

from physmocap.core import kinematics as kin
from physmocap.core.types import JointAngleMotion

from conftest import random_motion


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _fk_oracle(skeleton, root_pos, angles):
    """Independent single-frame FK: explicit per-joint matrix chain."""
    J = skeleton.n_joints
    pos = np.zeros((J, 3))
    rots = [None] * J
    for j in range(J):
        R = _rz(angles[j, 2]) @ _ry(angles[j, 1]) @ _rx(angles[j, 0])
        if j == 0:
            rots[0] = R
            pos[0] = root_pos
        else:
            p = skeleton.parents[j]
            rots[j] = rots[p] @ R
            bone = skeleton.bone_dirs[j] * skeleton.bone_lengths[j]
            pos[j] = pos[p] + rots[p] @ bone
    return pos, rots


def test_fk_zero_angles_gives_rest_offsets(skeleton):
    T = 3
    root = np.tile(np.array([0.5, -0.2, 1.0]), (T, 1))
    motion = JointAngleMotion(skeleton=skeleton, fps=30.0, root_pos=root,
                              joint_angles=np.zeros((T, skeleton.n_joints, 3)))
    pos = kin.forward_kinematics(motion)
    expected = skeleton.rest_positions()[None] + root[:, None]
    assert np.allclose(pos, expected, atol=1e-12)


def test_fk_matches_matrix_chain_oracle(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=6, angle_scale=1.0)
    pos = kin.forward_kinematics(motion)
    for t in range(motion.n_frames):
        ref, _ = _fk_oracle(skeleton, motion.root_pos[t], motion.joint_angles[t])
        assert np.allclose(pos[t], ref, atol=1e-12)


def test_fk_preserves_bone_lengths(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=5, angle_scale=1.2)
    pos = kin.forward_kinematics(motion)
    for j in range(1, skeleton.n_joints):
        d = np.linalg.norm(pos[:, j] - pos[:, skeleton.parents[j]], axis=1)
        assert np.allclose(d, skeleton.bone_lengths[j], atol=1e-12)


def test_fk_jacobian_matches_finite_differences(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=2, angle_scale=0.7)
    t = 1
    jac = kin.fk_jacobian(skeleton, motion.root_pos[t], motion.joint_angles[t])
    h = 1e-6
    angles = motion.joint_angles[t]
    for k in range(skeleton.n_joints):
        for c in range(3):
            ap, am = angles.copy(), angles.copy()
            ap[k, c] += h
            am[k, c] -= h
            pp, _ = kin.fk_positions_rotations(skeleton, motion.root_pos[t], ap)
            pm, _ = kin.fk_positions_rotations(skeleton, motion.root_pos[t], am)
            fd = (pp - pm) / (2 * h)
            assert np.allclose(jac[:, :, k, c], fd, atol=2e-7), (k, c)
    batch = kin.fk_jacobian(skeleton, motion.root_pos, motion.joint_angles)
    assert np.array_equal(batch, np.stack([
        kin.fk_jacobian(skeleton, motion.root_pos[f], motion.joint_angles[f])
        for f in range(motion.n_frames)]))


def test_com_matches_weighted_sum_oracle(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=4)
    states = kin.compute_com_inertia(motion)
    pos = kin.forward_kinematics(motion)
    for t in range(motion.n_frames):
        acc = np.zeros(3)
        total = 0.0
        for seg in skeleton.segments:
            a = pos[t, skeleton.joint_id(seg.proximal)]
            b = pos[t, skeleton.joint_id(seg.distal)]
            p = a + seg.com_ratio * (b - a)
            m = seg.mass_fraction * skeleton.mass_total
            acc += m * p
            total += m
        assert np.allclose(states.r[t], acc / total, atol=1e-12)
    assert abs(states.mass - skeleton.mass_total) < 1e-9


def test_inertia_matches_point_mass_oracle(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=3)
    states = kin.compute_com_inertia(motion)
    pos, rots = kin.fk_positions_rotations(skeleton, motion.root_pos,
                                           motion.joint_angles)
    for t in range(motion.n_frames):
        I = np.zeros((3, 3))
        for seg in skeleton.segments:
            a = pos[t, skeleton.joint_id(seg.proximal)]
            b = pos[t, skeleton.joint_id(seg.distal)]
            p = a + seg.com_ratio * (b - a)
            m = seg.mass_fraction * skeleton.mass_total
            d = rots[t, 0].T @ (p - states.r[t])
            I += m * ((d @ d) * np.eye(3) - np.outer(d, d))
        assert np.allclose(states.I_b[t], I, atol=1e-12)
        # symmetric positive definite
        assert np.allclose(states.I_b[t], states.I_b[t].T, atol=1e-12)
        assert np.linalg.eigvalsh(states.I_b[t])[0] > 0


def test_com_orientation_is_root_orientation(skeleton, rng):
    motion = random_motion(skeleton, rng, n_frames=4)
    states = kin.compute_com_inertia(motion)
    assert np.allclose(states.theta, motion.joint_angles[:, 0], atol=1e-12)


def test_projection_basics():
    pts = np.array([[0.0, 0.0, 2.0], [0.5, -0.25, 2.5]])
    px = kin.project_perspective(pts, 2000.0, (960.0, 540.0))
    assert np.allclose(px[0], [960.0, 540.0])
    assert np.allclose(px[1], [960.0 + 2000.0 * 0.2, 540.0 - 2000.0 * 0.1])
