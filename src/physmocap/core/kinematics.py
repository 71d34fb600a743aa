"""Forward kinematics, its analytic Jacobian, and centroidal quantities."""
from __future__ import annotations

import numpy as np

from .rotation import euler_rotation_axes, euler_to_matrix
from .types import CentroidalStates


def fk_positions_rotations(skeleton, root_pos, joint_angles):
    """World joint positions and rotations for a batch of frames.

    root_pos: T x 3, joint_angles: T x J x 3.
    Returns (positions T x J x 3, rotations T x J x 3 x 3).
    """
    root_pos = np.asarray(root_pos, dtype=float)
    joint_angles = np.asarray(joint_angles, dtype=float)
    single = root_pos.ndim == 1
    if single:
        root_pos = root_pos[None]
        joint_angles = joint_angles[None]
    T, J = joint_angles.shape[:2]
    local = euler_to_matrix(joint_angles)          # T x J x 3 x 3
    W = np.empty_like(local)
    pos = np.empty((T, J, 3))
    W[:, 0] = local[:, 0]
    pos[:, 0] = root_pos
    bones = skeleton.bone_dirs * skeleton.bone_lengths[:, None]  # J x 3
    for j in range(1, J):
        p = skeleton.parents[j]
        W[:, j] = W[:, p] @ local[:, j]
        pos[:, j] = pos[:, p] + (W[:, p] @ bones[j])
    if single:
        return pos[0], W[0]
    return pos, W


def forward_kinematics(motion):
    """World joint positions of a JointAngleMotion, T x J x 3."""
    pos, _ = fk_positions_rotations(motion.skeleton, motion.root_pos,
                                    motion.joint_angles)
    return pos


def descendant_mask(skeleton):
    """mask[k, j] is True when joint k is a strict ancestor of joint j."""
    J = skeleton.n_joints
    mask = np.zeros((J, J), dtype=bool)
    for j in range(1, J):
        p = skeleton.parents[j]
        while p >= 0:
            mask[p, j] = True
            p = skeleton.parents[p]
    return mask


def fk_jacobian(skeleton, root_pos, joint_angles, positions=None, rotations=None):
    """d(world position)/d(joint angles), batched over frames.

    Returns jac with shape T x J x 3 x J x 3: jac[t, j, :, k, c] is the
    derivative of joint j's position w.r.t. angle component c of joint k.
    Root translation is not included (its derivative is the identity on every
    joint). Pass positions/rotations from fk_positions_rotations to reuse them.
    """
    root_pos = np.asarray(root_pos, dtype=float)
    joint_angles = np.asarray(joint_angles, dtype=float)
    single = root_pos.ndim == 1
    if single:
        root_pos = root_pos[None]
        joint_angles = joint_angles[None]
    if positions is None or rotations is None:
        positions, rotations = fk_positions_rotations(skeleton, root_pos, joint_angles)
    T, J = joint_angles.shape[:2]
    axes = euler_rotation_axes(joint_angles)         # T x J x 3 x 3 (columns)
    # world axes: the root has no parent rotation
    axes[:, 1:] = rotations[:, skeleton.parents[1:]] @ axes[:, 1:]
    k, j = np.nonzero(descendant_mask(skeleton))     # k is an ancestor of j
    rel = positions[:, j] - positions[:, k]          # T x P x 3
    cross = np.cross(np.swapaxes(axes[:, k], -1, -2), rel[:, :, None])
    jac = np.zeros((T, J, 3, J, 3))
    jac[:, j, :, k, :] = cross.transpose(1, 0, 3, 2)
    if single:
        return jac[0]
    return jac


def segment_points(skeleton, positions):
    """Point-mass locations and masses. positions: ... x J x 3.

    Returns (points ... x S x 3, masses S).
    """
    pts = []
    masses = []
    for s in skeleton.segments:
        a = positions[..., skeleton.joint_id(s.proximal), :]
        b = positions[..., skeleton.joint_id(s.distal), :]
        pts.append(a + s.com_ratio * (b - a))
        masses.append(s.mass_fraction * skeleton.mass_total)
    return np.stack(pts, axis=-2), np.array(masses)


def compute_com_inertia(motion):
    """Centroidal trajectory of a joint-angle motion.

    COM and inertia come from the point-mass segment model; the orientation is
    the root orientation, unwrapped over time per component. Inertia is taken
    about the COM in the root-aligned body frame.
    """
    positions, rotations = fk_positions_rotations(
        motion.skeleton, motion.root_pos, motion.joint_angles)
    pts, masses = segment_points(motion.skeleton, positions)   # T x S x 3
    M = masses.sum()
    r = np.einsum("s,tsd->td", masses, pts) / M
    root_R = rotations[:, 0]                                   # T x 3 x 3
    d_world = pts - r[:, None, :]
    d_body = np.einsum("tji,tsj->tsi", root_R, d_world)        # R^T @ d
    sq = np.einsum("tsi,tsi->ts", d_body, d_body)
    eye = np.eye(3)
    I_b = np.einsum("s,ts,ij->tij", masses, sq, eye) \
        - np.einsum("s,tsi,tsj->tij", masses, d_body, d_body)
    theta = np.unwrap(motion.joint_angles[:, 0], axis=0)
    return CentroidalStates(fps=motion.fps, mass=float(M), r=r, theta=theta,
                            I_b=I_b)


def transform_motion(motion, R, t):
    """Rigid world transform of a motion: x -> R x + t.

    Only the root is touched; joint-local angles are invariant under a world
    transform. FK positions of the result equal R @ fk(motion) + t.
    """
    from .rotation import euler_to_matrix as e2m, matrix_to_euler as m2e

    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    root_pos = motion.root_pos @ R.T + t
    angles = motion.joint_angles.copy()
    angles[:, 0] = m2e(R @ e2m(motion.joint_angles[:, 0]))
    return motion.with_frames(root_pos, angles)


def project_perspective(points, focal, principal_point):
    """Pinhole projection of camera-frame points (... x 3) to pixels (... x 2)."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    if np.any(z <= 1e-6):
        raise ValueError("point at or behind the camera (z <= 0)")
    xy = points[..., :2] / z[..., None]
    return focal * xy + np.asarray(principal_point, dtype=float)
