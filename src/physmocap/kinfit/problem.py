"""Residuals and sparse Jacobians for the kinematic cleanup solve.

Variables are ordered frame by frame: x holds [root translation (3), joint
Euler angles (3J)] for each of the T frames in turn, so a frame's variables
are one contiguous block of 3 + 3J. Every term couples frames at most two
apart (the acceleration rows), so J^T J is a band matrix in this order.
The residuals are a constant linear map of the FK joint positions,
r = M @ pos - b, plus two other kinds: the perspective projection of the
positions, and the wrapped angle differences between frames, a constant map
of x itself. Of the linear rows, the 3D data and limb smoothness rows act on
root-relative positions, so global translation is pinned only by the
projection term (plus its own small smoothness rows); the contact stillness
and floor height rows act on global foot positions. The Jacobian is
therefore [projection blocks; M] times the sparse FK Jacobian, with the
angle-difference rows below.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from ..core.kinematics import descendant_mask, fk_jacobian, fk_positions_rotations
from ..core.rotation import wrap_angle


# Term weights; each residual block is scaled by the square root of its
# weight. The weights of the terms linear in the joint positions are in
# KinematicProblem's table; ANGLE_WEIGHT is the angle_smooth term's.
PROJECTION_WEIGHT = 0.5
ANGLE_WEIGHT = 0.1


def _frame_diff(T, n):
    """(T - n) x T matrix of n-th order forward differences over frames."""
    return sparse.csr_matrix(np.diff(np.eye(T), n=n, axis=0))


class KinematicProblem:
    """Nonlinear least-squares problem over one clip.

    Pass contacts+floor to enable the contact stillness and floor height
    terms (the final stage); without them only data-driven and smoothness
    terms are active.
    """

    def __init__(self, seq, skeleton, contacts=None, floor=None):
        self.seq = seq
        self.skeleton = skeleton
        self.contacts = contacts
        self.floor = floor

        T, J = seq.n_frames, skeleton.n_joints
        self.T, self.J = T, J
        self.n_vars = T * (3 + 3 * J)
        self.proj_joints = np.array(skeleton.joints_with_2d(), dtype=int)
        cx, cy = seq.principal_point
        self.target2d = (seq.joints2d[:, self.proj_joints]
                         - np.array([cx, cy])) / seq.focal
        self.proj_w = np.sqrt(PROJECTION_WEIGHT
                              * np.clip(seq.conf[:, self.proj_joints], 0.0, 1.0))

        feet = np.asarray(skeleton.foot_joint_ids, dtype=int)
        labels = (contacts.labels if contacts is not None
                  else np.zeros((T, len(feet)), dtype=bool))
        still_t, still_k = np.nonzero(labels[:-1] & labels[1:])  # t to t+1
        floor_t, floor_k = np.nonzero(labels & (floor is not None))
        normal, offset = ((floor.normal, floor.normal @ floor.point)
                           if floor is not None else (np.zeros(3), 0.0))

        def frames(n, joints):
            """n-th frame differences of the joints' combinations, per xyz."""
            return sparse.kron(_frame_diff(T, n), np.kron(joints, np.eye(3)))

        def feet_at(t, k, xyz=np.eye(3)):
            """Joint positions (t, feet[k]) picked out of the T*J, per xyz."""
            pick = sparse.csr_matrix(
                (np.ones(len(t)), (np.arange(len(t)), t * J + feet[k])),
                shape=(len(t), T * J))
            return sparse.kron(pick, xyz)

        eye = np.eye(J)
        rel, root = eye[1:] - eye[:1], eye[:1]
        # root-relative 3D targets (the estimate's own pelvis as origin)
        targets = (seq.joints3d[:, 1:] - seq.joints3d[:, :1]).ravel()
        # (name, weight, map of the 3TJ positions, right-hand side)
        linear = [
            ("data3d", 0.3, frames(0, rel), targets),
            ("velocity", 0.1, frames(1, rel), 0.0),
            ("root_velocity", 0.1, frames(1, root), 0.0),
            ("acceleration", 0.5, frames(2, rel), 0.0),
            ("root_acceleration", 0.5, frames(2, root), 0.0),
            ("contact_still", 10.0,
             feet_at(still_t + 1, still_k) - feet_at(still_t, still_k), 0.0),
            ("floor_height", 10.0, feet_at(floor_t, floor_k, normal[None]), offset),
        ]
        maps = [np.sqrt(wt) * m for _, wt, m, _ in linear]
        self.M = sparse.vstack(maps, format="csr")
        self.b = np.concatenate([np.broadcast_to(np.sqrt(wt) * rhs, m.shape[0])
                                 for (_, wt, _, rhs), m in zip(linear, maps)])
        # wrapped angle differences between frames, a map of x itself
        angle_cols = sparse.eye(3 * J, 3 + 3 * J, k=3)
        self.G = sparse.kron(_frame_diff(T, 1), angle_cols, format="csr")
        self.layout = ([("projection", 2 * T * len(self.proj_joints))]
                       + [(name, m.shape[0]) for (name, *_), m in zip(linear, maps)]
                       + [("angle_smooth", self.G.shape[0])])
        self.n_resid = sum(size for _, size in self.layout)

        # Sparse FK Jacobian: row (t, j, xyz) holds the root translation
        # columns of frame t and the angle columns of j's strict ancestors k
        # in frame t.
        # Its values are a 1 per row, then fk_jacobian's [:, j, :, k, :] over
        # the (j, k) pairs; _jpos keeps the CSR pattern and, per stored entry,
        # its index into those values (counted from 1, so none is zero).
        self._fk_pairs = np.nonzero(descendant_mask(skeleton).T)   # (j, k)
        j, k = (a[:, None, None, None] for a in self._fk_pairs)
        t, c = np.arange(T)[:, None, None], np.arange(3)
        frame = (3 + 3 * J) * t
        rows, cols = np.broadcast_arrays(3 * (t * J + j) + c[:, None],
                                         frame + 3 + 3 * k + c)
        root_cols = np.broadcast_to(frame + c, (T, J, 3))
        index = sparse.csr_matrix(
            (np.arange(1, 3 * T * J + rows.size + 1),
             (np.concatenate([np.arange(3 * T * J), rows.ravel()]),
              np.concatenate([root_cols.ravel(), cols.ravel()]))),
            shape=(3 * T * J, self.n_vars))
        self._jpos = index.indices, index.indptr, index.data - 1
        # projection rows: a 2 x 3 block per (frame, projected joint) on top of M
        A = len(self.proj_joints)
        pcols = 3 * (np.arange(T)[:, None] * J + self.proj_joints)[..., None, None] + c
        proj = sparse.csr_matrix(
            (np.ones(6 * T * A), np.broadcast_to(pcols, (T, A, 2, 3)).ravel(),
             np.arange(0, 6 * T * A + 1, 3)), shape=(2 * T * A, 3 * T * J))
        self._stack = sparse.vstack([proj, self.M], format="csr")

    # -- variable packing -------------------------------------------------

    def pack(self, root_pos, joint_angles):
        return np.hstack([np.reshape(root_pos, (self.T, 3)),
                          np.reshape(joint_angles, (self.T, 3 * self.J))]).ravel()

    def unpack(self, x):
        frames = x.reshape(self.T, 3 + 3 * self.J)
        return frames[:, :3], frames[:, 3:].reshape(self.T, self.J, 3)

    # -- residuals and Jacobian -------------------------------------------

    def _projection(self, pos):
        p = pos[:, self.proj_joints]
        z = np.maximum(p[..., 2], 0.1)
        return p, z

    def residuals(self, x):
        root, angles = self.unpack(x)
        pos, _ = fk_positions_rotations(self.skeleton, root, angles)
        p, z = self._projection(pos)
        proj = np.stack([p[..., 0] / z, p[..., 1] / z], axis=-1)
        return np.concatenate([
            ((proj - self.target2d) * self.proj_w[..., None]).ravel(),
            self.M @ pos.ravel() - self.b,
            np.sqrt(ANGLE_WEIGHT) * wrap_angle(self.G @ x)])

    def jacobian(self, x):
        root, angles = self.unpack(x)
        pos, rots = fk_positions_rotations(self.skeleton, root, angles)
        jac = fk_jacobian(self.skeleton, root, angles, positions=pos, rotations=rots)
        indices, indptr, order = self._jpos
        j, k = self._fk_pairs
        values = np.concatenate([np.ones(3 * self.T * self.J), jac[:, j, :, k].ravel()])
        jpos = sparse.csr_matrix((values[order], indices, indptr),
                                 shape=(3 * self.T * self.J, self.n_vars))

        p, z = self._projection(pos)
        dproj = np.zeros(p.shape[:2] + (2, 3))   # T x A x 2 x 3
        dproj[..., 0, 0] = 1.0 / z
        dproj[..., 1, 1] = 1.0 / z
        dproj[..., 0, 2] = -p[..., 0] / z ** 2
        dproj[..., 1, 2] = -p[..., 1] / z ** 2
        stack = self._stack.copy()
        stack.data[:dproj.size] = (dproj * self.proj_w[..., None, None]).ravel()

        mat = sparse.vstack([stack @ jpos, np.sqrt(ANGLE_WEIGHT) * self.G], format="csr")
        mat.eliminate_zeros()
        return mat

    def cost_breakdown(self, x):
        """Sum of squares per term, for reporting."""
        r = self.residuals(x)
        bounds = np.cumsum([0] + [size for _, size in self.layout])
        return {name: float(np.sum(r[a:b] ** 2))
                for (name, _), a, b in zip(self.layout, bounds[:-1], bounds[1:])}
