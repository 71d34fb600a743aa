"""Residuals and per-frame Jacobian blocks for the kinematic cleanup solve.

Variables are ordered frame by frame: x holds [root translation (3), posed
joints' Euler angles (3K)] for each of the T frames in turn, nf = 3 + 3K per
frame. The K posed joints are those with a child (skeleton.posed_joints(),
20 of the default skeleton's 28); a leaf's angles move no position, so they
are not variables and stay 0.
The residuals are the perspective projection of the FK joint positions, a
constant linear map of the positions, r = M @ pos - b, and the wrapped angle
differences between frames, a constant map G of x itself. Of the linear
rows, the 3D data and limb smoothness rows act on root-relative positions,
so global translation is pinned only by the projection term (plus its own
small smoothness rows); the contact stillness and floor height rows act on
global foot positions. So x enters only through each frame's FK Jacobian,
and every term couples frames at most two apart: J^T J is a band of
frame-pair blocks, which FrameJacobian forms from the per-frame blocks and
constants derived once from M's terms and G, without building J (the
Gauss-Newton normal equations; Nocedal & Wright, ch. 10).
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator

from ..core.kinematics import fk_jacobian, fk_positions_rotations
from ..core.rotation import wrap_angle


# Term weights; each residual block is scaled by the square root of its
# weight. The weights of the terms linear in the joint positions are in
# KinematicProblem's tables; ANGLE_WEIGHT is the angle_smooth term's.
PROJECTION_WEIGHT = 0.5
ANGLE_WEIGHT = 0.1


def _frame_diff(T, n):
    """(T - n) x T matrix of n-th order forward differences over frames."""
    stencil = np.diff(np.eye(n + 1), n=n, axis=0)[0]   # e.g. [1, -2, 1]
    return sparse.diags(stencil, range(n + 1), shape=(max(T - n, 0), T), format="csr")


class KinematicProblem:
    """Nonlinear least-squares problem over one clip.

    Pass contacts+floor to enable the contact stillness and floor height
    terms, as the pipeline always does. Without them only the data-driven
    and smoothness terms are active; only perfbench/micro.py builds that
    form.
    """

    def __init__(self, seq, skeleton, contacts=None, floor=None):
        self.seq = seq
        self.skeleton = skeleton
        self.contacts = contacts
        self.floor = floor

        T, J = seq.n_frames, skeleton.n_joints
        self.T, self.J = T, J
        self.posed = np.array(skeleton.posed_joints())
        nf = 3 + 3 * len(self.posed)
        self.n_vars = T * nf
        self.proj_joints = np.array(skeleton.joints_with_2d(), dtype=int)
        cx, cy = seq.principal_point
        self.target2d = (seq.joints2d[:, self.proj_joints]
                         - np.array([cx, cy])) / seq.focal
        self.proj_w = np.sqrt(PROJECTION_WEIGHT
                              * np.clip(seq.conf[:, self.proj_joints], 0.0, 1.0))

        self.feet = np.asarray(skeleton.foot_joint_ids, dtype=int)
        n_feet = len(self.feet)
        labels = (contacts.labels if contacts is not None
                  else np.zeros((T, n_feet), dtype=bool))
        still_t, still_k = np.nonzero(labels[:-1] & labels[1:])  # t to t+1
        floor_t, floor_k = np.nonzero(labels & (floor is not None))
        normal, offset = ((floor.normal, floor.normal @ floor.point)
                           if floor is not None else (np.zeros(3), 0.0))

        def feet_at(t, k, xyz=np.eye(3)):
            """Positions of (t, foot k) picked out of the T * n_feet, per xyz."""
            pick = sparse.csr_matrix(
                (np.ones(len(t)), (np.arange(len(t)), t * n_feet + k)),
                shape=(len(t), T * n_feet))
            return sparse.kron(pick, xyz)

        eye, xyz = np.eye(J), np.eye(3)
        rel, root = eye[1:] - eye[:1], eye[:1]
        # root-relative 3D targets (the estimate's own pelvis as origin)
        targets = (seq.joints3d[:, 1:] - seq.joints3d[:, :1]).ravel()
        # (name, weight, frame map F, joint map, rhs): rows F ⊗ joints ⊗ I3
        joint_terms = [
            ("data3d", 0.3, _frame_diff(T, 0), rel, targets),
            ("velocity", 0.1, _frame_diff(T, 1), rel, 0.0),
            ("root_velocity", 0.1, _frame_diff(T, 1), root, 0.0),
            ("acceleration", 0.5, _frame_diff(T, 2), rel, 0.0),
            ("root_acceleration", 0.5, _frame_diff(T, 2), root, 0.0),
        ]
        # (name, weight, map of the 3 n_feet T foot coordinates, rhs)
        contact_terms = [
            ("contact_still", 10.0,
             feet_at(still_t + 1, still_k) - feet_at(still_t, still_k), 0.0),
            ("floor_height", 10.0, feet_at(floor_t, floor_k, normal[None]), offset),
        ]
        on_feet = sparse.kron(sparse.eye(T), np.kron(eye[self.feet], xyz))
        linear = ([(name, wt, sparse.kron(F, np.kron(joints, xyz)), rhs)
                   for name, wt, F, joints, rhs in joint_terms]
                  + [(name, wt, m @ on_feet, rhs) for name, wt, m, rhs in contact_terms])
        maps = [np.sqrt(wt) * m for _, wt, m, _ in linear]
        self.M = sparse.vstack(maps, format="csr")
        self.b = np.concatenate([np.broadcast_to(np.sqrt(wt) * rhs, m.shape[0])
                                 for (_, wt, _, rhs), m in zip(linear, maps)])
        # wrapped angle differences between frames, a map of x itself
        angle_cols = sparse.eye(nf - 3, nf, k=3)
        self.G = sparse.kron(_frame_diff(T, 1), angle_cols, format="csr")
        self.layout = ([("projection", 2 * T * len(self.proj_joints))]
                       + [(name, m.shape[0]) for (name, *_), m in zip(linear, maps)]
                       + [("angle_smooth", self.G.shape[0])])
        self.n_resid = sum(size for _, size in self.layout)

        # Constants of J^T J's blocks H[t + o, t], o = 0, 1, 2: the rel rows'
        # w (F^T F)[t + o, t], scaling Y_{t+o}^T Y_t; the contact rows' w m^T m;
        # the diagonals of G's and the root rows' w X^T X (both maps of x).
        def gram(joints):
            return sum(wt * F.T @ F for _, wt, F, jm, _ in joint_terms if jm is joints)

        def diagonals(K, step):   # [o, j] = K[j + o step, j], zero past the end
            return np.stack([np.pad(K.diagonal(-o * step), (0, o * step))
                             for o in range(3)])

        self.rel, self.rel_coef = rel, diagonals(gram(rel), 1)
        self.const_diag = diagonals(
            sparse.kron(gram(root), sparse.eye(nf, 3) @ sparse.eye(3, nf))
            + ANGLE_WEIGHT * self.G.T @ self.G, nf).reshape(3, T, nf).swapaxes(0, 1)
        K = sparse.bsr_matrix(sum(wt * m.T @ m for _, wt, m, _ in contact_terms),
                              blocksize=(3 * n_feet, 3 * n_feet))
        s, t = np.repeat(np.arange(T), np.diff(K.indptr)), K.indices   # block (s, t)
        self.feet_blocks = np.zeros((T, 3, 3 * n_feet, 3 * n_feet))
        self.feet_blocks[t[s >= t], (s - t)[s >= t]] = K.data[s >= t]

    # -- variable packing -------------------------------------------------

    def pack(self, root_pos, joint_angles):
        """x from root positions (T x 3) and joint angles (T x J x 3); the
        leaf joints' angles are dropped."""
        angles = np.reshape(joint_angles, (self.T, self.J, 3))[:, self.posed]
        return np.hstack([np.reshape(root_pos, (self.T, 3)),
                          angles.reshape(self.T, -1)]).ravel()

    def unpack(self, x):
        """(root positions T x 3, joint angles T x J x 3) from x; the leaf
        joints' angles come back as 0."""
        frames = x.reshape(self.T, -1)
        angles = np.zeros((self.T, self.J, 3))
        angles[:, self.posed] = frames[:, 3:].reshape(self.T, -1, 3)
        return frames[:, :3], angles

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
        """The residuals' Jacobian at x, as a FrameJacobian. perfbench times
        this call in its kinfit.jacobian_calls, _s and _ms_x0 rows."""
        T, J, nf = self.T, self.J, self.n_vars // self.T
        root, angles = self.unpack(x)
        pos, rots = fk_positions_rotations(self.skeleton, root, angles)
        fk = np.empty((T, J, 3, nf))
        fk[..., :3] = np.eye(3)
        fk[..., 3:] = fk_jacobian(self.skeleton, angles, pos,
                                  rots).reshape(T, J, 3, nf - 3)
        p, z = self._projection(pos)
        dproj = np.zeros(p.shape[:2] + (2, 3))   # T x A x 2 x 3
        dproj[..., [0, 1], [0, 1]] = 1.0 / z[..., None]
        dproj[..., 2] = -p[..., :2] / z[..., None] ** 2
        proj = (dproj * self.proj_w[..., None, None]) @ fk[:, self.proj_joints]
        return FrameJacobian(self, fk.reshape(T, 3 * J, -1),
                             proj.reshape(T, -1, nf))

    def cost_breakdown(self, x):
        """Sum of squares per term, for reporting."""
        r = self.residuals(x)
        bounds = np.cumsum([0] + [size for _, size in self.layout])
        return {name: float(np.sum(r[a:b] ** 2))
                for (name, _), a, b in zip(self.layout, bounds[:-1], bounds[1:])}


class FrameJacobian(LinearOperator):
    """A KinematicProblem's Jacobian at one x, from per-frame blocks: fk[t],
    d(frame t's 3J positions)/d(its nf variables), and proj[t], its weighted
    projection rows. With the problem's constant M and G they give every row."""

    def __init__(self, problem, fk, proj):
        super().__init__(float, (problem.n_resid, problem.n_vars))
        self.problem, self.fk, self.proj = problem, fk, proj

    def _matvec(self, v):
        p, v = self.problem, v.reshape(self.problem.T, -1, 1)
        return np.concatenate([(self.proj @ v).ravel(), p.M @ (self.fk @ v).ravel(),
                               np.sqrt(ANGLE_WEIGHT) * (p.G @ v.ravel())])

    def _rmatvec(self, r):
        p = self.problem
        r_proj, r_lin, r_ang = np.split(r, np.cumsum([self.proj[..., 0].size, p.M.shape[0]]))
        g = (r_proj.reshape(p.T, 1, -1) @ self.proj
             + (r_lin @ p.M).reshape(p.T, 1, -1) @ self.fk)
        return g.ravel() + np.sqrt(ANGLE_WEIGHT) * (r_ang @ p.G)

    def toarray(self):
        return self.matmat(np.eye(self.shape[1]))

    def normal_blocks(self, out):
        """Writes J^T J's blocks H[t + o, t], o = 0, 1, 2, into out[t, o]
        (T x 3 x nf x nf); blocks past the last frame are zero."""
        p, T = self.problem, self.problem.T
        by_joint, nf = self.fk.reshape(T, p.J, -1), self.fk.shape[2]
        rel = (p.rel @ by_joint).reshape(T, -1, nf)
        feet = by_joint[:, p.feet].reshape(T, -1, nf)
        for o in range(3):
            n = T - o
            np.matmul(np.swapaxes(rel[o:], 1, 2),
                      p.rel_coef[o, :n, None, None] * rel[:n], out=out[:n, o])
            out[:n, o] += np.swapaxes(feet[o:], 1, 2) @ (p.feet_blocks[:n, o] @ feet[:n])
            out[n:, o] = 0.0
        out[:, 0] += np.swapaxes(self.proj, 1, 2) @ self.proj
        np.einsum("toii->toi", out)[...] += p.const_diag
