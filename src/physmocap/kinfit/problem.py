"""Residuals and sparse Jacobians for the kinematic cleanup solve.

Variables are the root translation and all joint Euler angles of every frame.
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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..core.kinematics import descendant_mask, fk_jacobian, fk_positions_rotations
from ..core.rotation import wrap_angle


@dataclass(frozen=True)
class KinfitWeights:
    """Square roots of these scale the residual blocks."""
    proj: float = 0.5
    data: float = 0.3
    vel: float = 0.1
    ang: float = 0.1
    acc: float = 0.5
    contact: float = 10.0
    floor: float = 10.0


def _frame_diff(T, n):
    """(T - n) x T matrix of n-th order forward differences over frames."""
    return sparse.csr_matrix(np.diff(np.eye(T), n=n, axis=0))


class KinematicProblem:
    """Nonlinear least-squares problem over one clip.

    Pass contacts+floor to enable the contact stillness and floor height
    terms (the final stage); without them only data-driven and smoothness
    terms are active.
    """

    def __init__(self, seq, skeleton, contacts=None, floor=None, weights=None):
        self.seq = seq
        self.skeleton = skeleton
        self.contacts = contacts
        self.floor = floor
        self.w = w = weights or KinfitWeights()

        T, J = seq.n_frames, skeleton.n_joints
        self.T, self.J = T, J
        self.n_vars = 3 * T + 3 * J * T
        self.proj_joints = np.array(skeleton.joints_with_2d(), dtype=int)
        cx, cy = seq.principal_point
        self.target2d = (seq.joints2d[:, self.proj_joints]
                         - np.array([cx, cy])) / seq.focal
        self.proj_w = np.sqrt(w.proj * np.clip(seq.conf[:, self.proj_joints],
                                               0.0, 1.0))

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
            ("data3d", w.data, frames(0, rel), targets),
            ("velocity", w.vel, frames(1, rel), 0.0),
            ("root_velocity", w.vel, frames(1, root), 0.0),
            ("acceleration", w.acc, frames(2, rel), 0.0),
            ("root_acceleration", w.acc, frames(2, root), 0.0),
            ("contact_still", w.contact,
             feet_at(still_t + 1, still_k) - feet_at(still_t, still_k), 0.0),
            ("floor_height", w.floor, feet_at(floor_t, floor_k, normal[None]), offset),
        ]
        maps = [np.sqrt(wt) * m for _, wt, m, _ in linear]
        self.M = sparse.vstack(maps, format="csr")
        self.b = np.concatenate([np.broadcast_to(np.sqrt(wt) * rhs, m.shape[0])
                                 for (_, wt, _, rhs), m in zip(linear, maps)])
        # wrapped angle differences between frames, a map of x itself
        self.G = sparse.hstack([sparse.csr_matrix((3 * J * (T - 1), 3 * T)),
                                sparse.kron(_frame_diff(T, 1), sparse.identity(3 * J))],
                               format="csr")
        self.layout = ([("projection", 2 * T * len(self.proj_joints))]
                       + [(name, m.shape[0]) for (name, *_), m in zip(linear, maps)]
                       + [("angle_smooth", self.G.shape[0])])
        self.n_resid = sum(size for _, size in self.layout)

        # Sparse FK Jacobian: row (t, j, xyz) holds the root translation
        # column of frame t and the angle columns of j's strict ancestors k.
        # Its values are a 1 per row, then fk_jacobian's [:, j, :, k, :] over
        # the (j, k) pairs; _jpos keeps the CSR pattern and, per stored entry,
        # its index into those values (counted from 1, so none is zero).
        self._fk_pairs = np.nonzero(descendant_mask(skeleton).T)   # (j, k)
        j, k = (a[:, None, None, None] for a in self._fk_pairs)
        t, c = np.arange(T)[:, None, None], np.arange(3)
        rows, cols = np.broadcast_arrays(3 * (t * J + j) + c[:, None],
                                         3 * T + 3 * (t * J + k) + c)
        root_cols = np.broadcast_to(3 * t + c, (T, J, 3))
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
        return np.concatenate([np.ravel(root_pos), np.ravel(joint_angles)])

    def unpack(self, x):
        T, J = self.T, self.J
        root = x[:3 * T].reshape(T, 3)
        angles = x[3 * T:].reshape(T, J, 3)
        return root, angles

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
            np.sqrt(self.w.ang) * wrap_angle(self.G @ x)])

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

        mat = sparse.vstack([stack @ jpos, np.sqrt(self.w.ang) * self.G], format="csr")
        mat.eliminate_zeros()
        return mat

    def cost_breakdown(self, x):
        """Sum of squares per term, for reporting."""
        r = self.residuals(x)
        bounds = np.cumsum([0] + [size for _, size in self.layout])
        return {name: float(np.sum(r[a:b] ** 2))
                for (name, _), a, b in zip(self.layout, bounds[:-1], bounds[1:])}
