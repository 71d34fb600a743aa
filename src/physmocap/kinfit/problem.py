"""Residuals and per-frame Jacobian blocks for the kinematic cleanup solve.

Variables are ordered frame by frame: x holds [root translation (3), posed
joints' Euler angles (3K)], in frame_layout's columns, for each of the T
frames in turn, nf = 3 + 3K per frame. The K posed joints are those with a
child (skeleton.posed_joints(), 20 of the default skeleton's 28); a leaf's
angles move no position, so they are not variables and stay 0.
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
Gauss-Newton normal equations; Nocedal & Wright, ch. 10). No row reads two
root subtrees' angles, so the band is kd = 2 nf + (widest subtree range) - 1
deep (branch-induced sparsity of kinematic trees; Featherstone, IJRR 2005).
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from ..core.kinematics import fk_jacobian, fk_positions_rotations, frame_layout
from ..core.rotation import wrap_angle


# Term weights; each residual block is scaled by the square root of its
# weight. The weights of the terms linear in the joint positions are in
# KinematicProblem's tables; ANGLE_WEIGHT is the angle_smooth term's.
PROJECTION_WEIGHT = 0.5
ANGLE_WEIGHT = 0.1
FRAME_CHUNK = 32   # frames per pass of FrameJacobian.normal_blocks


def _frame_diff(T, n):
    """(T - n) x T matrix of n-th order forward differences over frames."""
    stencil = np.diff(np.eye(n + 1), n=n, axis=0)[0]   # e.g. [1, -2, 1]
    return sparse.diags(stencil, range(n + 1), shape=(max(T - n, 0), T), format="csr")


class KinematicProblem:
    """Nonlinear least-squares problem over one clip.

    Pass contacts+floor to enable the contact stillness and floor height
    terms, as the pipeline always does. Without them only the data-driven
    and smoothness terms are active; only perfbench/micro.py builds that
    form. jacobian(x) returns a FrameJacobian: J @ v, the gradient J^T r
    (rmatvec) and the blocks of J^T J (normal_blocks), none of which build J.
    """

    def __init__(self, seq, skeleton, contacts=None, floor=None):
        self.skeleton = skeleton
        self.contacts = contacts
        self.floor = floor
        self._last_fk = (None,) * 4   # residuals' x (as bytes), angles and FK

        T, J = seq.n_frames, skeleton.n_joints
        self.T, self.J = T, J
        self.posed = np.array(skeleton.posed_joints())
        self.cols, spans = frame_layout(tuple(skeleton.parents))
        nf = self.cols.size
        self.kd = 2 * nf + max(hi - lo for _, lo, hi in spans) - 1
        self.n_vars = T * nf
        self.proj_joints = np.array(skeleton.joints_with_2d(), dtype=int)
        starts = np.flatnonzero(np.diff(self.proj_joints, prepend=-2) != 1)
        self.proj_runs = [(slice(a, b), slice(self.proj_joints[a], self.proj_joints[a] + b - a))
                          for a, b in zip(starts, np.r_[starts[1:], self.proj_joints.size])]
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
        pick = sparse.eye(nf, format="csr")
        root_cols, angle_cols = pick[self.cols[:3]], pick[self.cols[3:]]
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

        self.rel_coef = diagonals(gram(rel), 1)
        self.const_diag = diagonals(
            sparse.kron(gram(root), root_cols.T @ root_cols)
            + ANGLE_WEIGHT * self.G.T @ self.G, nf).reshape(3, T, nf).swapaxes(0, 1)
        K = sparse.bsr_matrix(sum(wt * m.T @ m for _, wt, m, _ in contact_terms),
                              blocksize=(3 * n_feet, 3 * n_feet))
        s, t = np.repeat(np.arange(T), np.diff(K.indptr)), K.indices   # block (s, t)
        feet_blocks = np.zeros((T, 3, 3 * n_feet, 3 * n_feet))
        feet_blocks[t[s >= t], (s - t)[s >= t]] = K.data[s >= t]
        # per root subtree: its columns, the joints of its FK rows (root-relative,
        # then its feet), its feet's weights (a foot pairs with itself only)
        # and which projected joints are its
        self.spans = []
        for joints, lo, hi in spans:
            f = np.repeat(np.isin(self.feet, joints), 3)
            self.spans.append((lo, hi, np.r_[joints[joints > 0], self.feet[f[::3]]],
                               feet_blocks[:, :, f][..., f], np.isin(self.proj_joints, joints)))

    # -- variable packing -------------------------------------------------

    def pack(self, root_pos, joint_angles):
        """x from root positions (T x 3) and joint angles (T x J x 3); the
        leaf joints' angles are dropped."""
        angles = np.reshape(joint_angles, (self.T, self.J, 3))[:, self.posed]
        frames = np.hstack([np.reshape(root_pos, (self.T, 3)), angles.reshape(self.T, -1)])
        return frames[:, np.argsort(self.cols)].ravel()

    def unpack(self, x):
        """(root positions T x 3, joint angles T x J x 3) from x; the leaf
        joints' angles come back as 0."""
        frames = x.reshape(self.T, -1)[:, self.cols]
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
        pos, rots = fk_positions_rotations(self.skeleton, root, angles)
        # kept for jacobian: the LM's accepted trial is its next Jacobian's x
        self._last_fk = x.tobytes(), angles, pos, rots
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
        key, angles, pos, rots = self._last_fk   # a single-entry cache on x
        if key != x.tobytes():
            root, angles = self.unpack(x)
            pos, rots = fk_positions_rotations(self.skeleton, root, angles)
        fk = fk_jacobian(self.skeleton, angles, pos, rots)   # T x J x 3 x nf
        p, z = self._projection(pos)
        dproj = np.zeros(p.shape[:2] + (2, 3))   # T x A x 2 x 3
        dproj[..., [0, 1], [0, 1]] = 1.0 / z[..., None]
        dproj[..., 2] = -p[..., :2] / z[..., None] ** 2
        dproj *= self.proj_w[..., None, None]
        proj = np.empty(p.shape[:2] + (2, nf))   # from slices of fk, not a gathered copy
        for rows, joints in self.proj_runs:   # runs of consecutive projected joints
            np.matmul(dproj[:, rows], fk[:, joints], out=proj[:, rows])
        return FrameJacobian(self, fk.reshape(T, 3 * J, -1),
                             proj.reshape(T, -1, nf))

    def cost_breakdown(self, r):
        """Sum of squares per term of the residuals r, for reporting."""
        bounds = np.cumsum([0] + [size for _, size in self.layout])
        return {name: float(np.sum(r[a:b] ** 2))
                for (name, _), a, b in zip(self.layout, bounds[:-1], bounds[1:])}


class FrameJacobian:
    """A KinematicProblem's Jacobian at one x, from per-frame blocks: fk[t],
    fk_jacobian's block of frame t (3J positions by nf variables), and proj[t],
    its weighted projection rows. With M and G they give every row."""

    def __init__(self, problem, fk, proj):
        self.problem, self.fk, self.proj = problem, fk, proj
        self.shape = (problem.n_resid, problem.n_vars)

    def __matmul__(self, v):
        p, v = self.problem, v.reshape(self.problem.T, -1, 1)
        return np.concatenate([(self.proj @ v).ravel(), p.M @ (self.fk @ v).ravel(),
                               np.sqrt(ANGLE_WEIGHT) * (p.G @ v.ravel())])

    def rmatvec(self, r):
        """J^T r, from the blocks as J @ v is, without building J."""
        p = self.problem
        r_proj, r_lin, r_ang = np.split(r, np.cumsum([self.proj[..., 0].size, p.M.shape[0]]))
        g = (r_proj.reshape(p.T, 1, -1) @ self.proj
             + (r_lin @ p.M).reshape(p.T, 1, -1) @ self.fk)
        return g.ravel() + np.sqrt(ANGLE_WEIGHT) * (r_ang @ p.G)

    def toarray(self):
        return np.stack([self @ e for e in np.eye(self.shape[1])], axis=1)

    def normal_blocks(self, out):
        """Writes J^T J's blocks H[t + o, t], o = 0, 1, 2, into out[t, o]
        (T x 3 x nf x nf); blocks past the last frame are zero. Per root subtree
        and o, one product of its rows over its column range adds its share; the
        rows are gathered FRAME_CHUNK frames at a time, not for the whole clip."""
        p, T = self.problem, self.problem.T
        fk, proj = self.fk.reshape(T, p.J, 3, -1), self.proj.reshape(T, -1, 2, p.cols.size)
        for s in range(0, T, FRAME_CHUNK):
            e, f = min(s + FRAME_CHUNK, T), min(s + FRAME_CHUNK + 2, T)   # out[s:e] reads s:f
            for i, (lo, hi, joints, feet_w, projected) in enumerate(p.spans):
                a = np.concatenate([fk[s:f, joints, :, lo:hi].reshape(f - s, -1, hi - lo),
                                    proj[s:f, projected, :, lo:hi].reshape(f - s, -1, hi - lo)], 1)
                k, n_rel = 3 * joints.size, 3 * joints.size - feet_w.shape[-1]
                a[:, :n_rel, p.cols[:3] - lo] = 0.0   # root-relative: no translation
                for o in range(3):   # projection rows pair a frame with itself only
                    n, m = max(min(e, T - o) - s, 0), k if o else a.shape[1]
                    b = np.concatenate([p.rel_coef[o, s:s + n, None, None] * a[:n, :n_rel],
                                        feet_w[s:s + n, o] @ a[:n, n_rel:k], a[:n, k:m]], axis=1)
                    at, block = np.swapaxes(a[o:o + n, :m], 1, 2), out[s:s + n, o]
                    if i:
                        block[:, lo:hi, lo:hi] += at @ b
                    else:   # the first range starts at column 0: written, the rest zeroed
                        np.matmul(at, b, out=block[:, :hi, :hi])
                        block[:, hi:] = block[:, :hi, hi:] = out[s + n:e, o] = 0.0
        np.einsum("toii->toi", out)[...] += p.const_diag

