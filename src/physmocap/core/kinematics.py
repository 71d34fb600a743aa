"""Forward kinematics, its analytic Jacobian, and centroidal quantities."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rotation import euler_rotation_axes, euler_to_matrix, matrix_to_euler
from .types import CentroidalStates

GRAVITY = 9.8   # m/s^2


def fk_positions_rotations(skeleton, root_pos, joint_angles):
    """World joint positions and rotations for a batch of frames.

    root_pos: T x 3, joint_angles: T x J x 3.
    Returns (positions T x J x 3, rotations T x J x 3 x 3).
    """
    root_pos = np.asarray(root_pos, dtype=float)
    joint_angles = np.asarray(joint_angles, dtype=float)
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
    return pos, W


def forward_kinematics(motion):
    """World joint positions of a JointAngleMotion, T x J x 3."""
    pos, _ = fk_positions_rotations(motion.skeleton, motion.root_pos,
                                    motion.joint_angles)
    return pos


@lru_cache
def frame_layout(parents):
    """One frame's variable columns, shared by fk_jacobian, core/ik.py and the
    kinfit LM: (cols, spans). cols[i] is the column of entry i of [root
    translation (3), posed joints' angles (3K)]. The columns hold the first
    root subtree's angles, then the root's translation and angles, then the
    other subtrees' angles, so each subtree's joint positions depend on one
    column range: spans holds (joints, lo, hi) per subtree, the root joint in
    the first."""
    tree = np.arange(len(parents))              # the root's child above each joint
    for j in range(1, len(parents)):            # parents precede children
        tree[j] = tree[parents[j]] if parents[j] else j
    tree = np.unique(np.r_[1, tree[1:]], return_inverse=True)[1]   # 0, 1, ...; root in 0
    key = np.where(tree > 0, tree + 1, 0)       # sort keys: subtree 0, root 1, then the rest
    key = np.repeat(np.r_[1, 1, key[sorted(set(parents[1:]))[1:]]], 3)
    spans = tuple((np.flatnonzero(tree == i), np.sum(key < min(i, 1)), np.sum(key <= i + 1))
                  for i in range(tree.max() + 1))
    return np.argsort(np.argsort(key, kind="stable")), spans


@lru_cache
def _ancestor_columns(parents):
    """fk_jacobian's scatter indices: for every joint j and each of its
    strict ancestors k, (k, j, the columns of k's angles), plus the layout."""
    posed = sorted(set(parents[1:]))
    ancestors = [[]]                     # parents precede children
    for p in parents[1:]:
        ancestors.append([p] + ancestors[p])
    k, j = np.array([(k, j) for j, anc in enumerate(ancestors) for k in anc]).T
    cols, _ = frame_layout(parents)
    k_cols = cols[3 + 3 * np.searchsorted(posed, k)[:, None] + np.arange(3)]
    return k, j[:, None], k_cols, cols


def fk_jacobian(skeleton, joint_angles, positions, rotations):
    """d(world position)/d(frame variables), batched over frames.

    positions and rotations are fk_positions_rotations' output at
    joint_angles (T x J x 3). Returns each frame's whole block, T x J x 3 x
    (3 + 3K), in frame_layout's columns: cols[:3] hold the identity (root
    translation), and cols[3 + 3i + c] the derivative of joint j's position
    w.r.t. angle component c of the i-th of the K posed joints
    (skeleton.posed_joints()); a leaf's angles move no position, so their
    all-zero columns are left out. Ancestor k's entries for joint j are its
    world Euler axes crossed with pos_j - pos_k.
    """
    joint_angles = np.asarray(joint_angles, dtype=float)
    T, J = joint_angles.shape[:2]
    axes = euler_rotation_axes(joint_angles)         # T x J x 3 x 3 (columns)
    # world axes: the root has no parent rotation
    axes[:, 1:] = rotations[:, skeleton.parents[1:]] @ axes[:, 1:]
    k, j, cols, layout = _ancestor_columns(tuple(skeleton.parents))
    a = axes[:, k]                                   # T x P x xyz x c
    d = positions[:, j[:, 0]] - positions[:, k]      # T x P x 3
    jac = np.zeros((T, J, 3, layout.size))
    jac[..., layout[:3]] = np.eye(3)
    x, y, z = (d[..., i, None] for i in range(3))
    jac[:, j, 0, cols] = a[:, :, 1] * z - a[:, :, 2] * y
    jac[:, j, 1, cols] = a[:, :, 2] * x - a[:, :, 0] * z
    jac[:, j, 2, cols] = a[:, :, 0] * y - a[:, :, 1] * x
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
    return CentroidalStates(mass=float(M), r=r, theta=theta, I_b=I_b)


def transform_motion(motion, R, t):
    """Rigid world transform of a motion: x -> R x + t.

    Only the root is touched; joint-local angles are invariant under a world
    transform. FK positions of the result equal R @ fk(motion) + t.
    """
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    root_pos = motion.root_pos @ R.T + t
    angles = motion.joint_angles.copy()
    angles[:, 0] = matrix_to_euler(R @ euler_to_matrix(motion.joint_angles[:, 0]))
    return motion.with_frames(root_pos, angles)


def project_perspective(points, focal, principal_point):
    """Pinhole projection of camera-frame points (... x 3) to pixels (... x 2)."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    if np.any(z <= 1e-6):
        raise ValueError("point at or behind the camera (z <= 0)")
    xy = points[..., :2] / z[..., None]
    return focal * xy + np.asarray(principal_point, dtype=float)
