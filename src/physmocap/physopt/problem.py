"""Objective and constraints of the reduced-body trajectory optimization.

The model is a single rigid body: COM position r(t), orientation theta(t)
(Euler Z-Y-X), and four foot contact points p_i(t) with forces f_i(t), over
the contact phases of the labels. Dynamics are enforced at the COM knots:

    m r''         = sum_i f_i + m g
    I_w w' + w x I_w w = sum_i f_i x (r - p_i)

with w the world angular velocity of the Euler track and I_w the body
inertia from the kinematic fit rotated by the current orientation. Leg reach
holds on a 0.08 s grid, each foot joint within its own chain. A stance foot
is one constant per phase, on the floor by construction of the dynamics
stage's variables z, so no row states it: the problem maps z to the knots
by x = x_fixed + P z, which also holds the COM boundary velocities at the
targets' own. One row keeps the rest toe-heel distance of each pair of toe
and heel stance phases that share a frame or meet at a phase bound
(foot_length). A sampled foot row that reads stance constants alone holds
by construction or repeats one of those, so above_floor has rows only at
the dynamics samples where that foot joint reads a flight spline, and
foot_length's 0.08 s samples only where its toe or heel does. Forces stay
in a friction cone of four faces, sampled at the force spline knots and
segment midpoints; its normal row bounds f.n by FORCE_MAX from above only,
since f.n >= 0 is the sum of two faces.

Every sampled track value is S @ x for a constant sparse sample matrix S
(trajectory.Samples), and every constant is built once with the problem.
The objective sum_k w_k |S_k x - b_k|^2 is (A x - b)^T W (A x - b) for one
stack A of the terms' rows, their targets b and per-row weights W: gradient
2 A^T W (A x - b) and constant Hessian 2 A^T W A, summed term by term. The
three linear constraint groups are constant rows, A_g x - b_g. The nonlinear
groups read one matrix per sample grid, its rows interleaved sample by
sample (DYN_SAMPLES, KIN_SAMPLES), and the foot length one map of toe - heel
differences; each group's Jacobian is one sparse product: the block-diagonal
matrix of its per-sample derivative blocks times that matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..core.kinematics import GRAVITY, fk_positions_rotations
from ..core.rotation import (euler_rotation_axes, euler_rotation_axes_grad,
                             euler_rotation_axes_hess, euler_to_matrix,
                             euler_to_matrix_grad, skew)

FORCE_MAX = 1000.0
FRICTION_RATIO = 0.5
KIN_DT = 0.08
BOUNDARY_FRAMES = 5   # frames averaged for each end's boundary velocity


@dataclass
class ReducedTargets:
    """Tracking targets and model constants from the kinematic stage."""
    fps: float
    mass: float
    times: np.ndarray        # T
    r: np.ndarray            # T x 3
    theta: np.ndarray        # T x 3, unwrapped
    feet: np.ndarray         # T x 4 x 3
    I_b: np.ndarray          # T x 3 x 3
    hip_offsets: np.ndarray  # T x 4 x 3, body frame COM -> each foot's hip
    floor: object
    l_leg: np.ndarray        # 4, per foot joint
    l_foot: np.ndarray       # 2, per side

    def interp(self, arr, t):
        """Linear interpolation of per-frame data at time(s) t."""
        f = np.asarray(t, dtype=float) * self.fps
        i0 = np.clip(np.floor(f), 0, len(self.times) - 2).astype(int)
        a = (f - i0)[(...,) + (None,) * (arr.ndim - 1)]
        return (1.0 - a) * arr[i0] + a * arr[i0 + 1]


def _boundary_velocities(track, fps):
    """Mean finite-difference velocity over the first and last BOUNDARY_FRAMES."""
    n = min(BOUNDARY_FRAMES, len(track) - 1)
    v0 = (track[n] - track[0]) * fps / n
    v1 = (track[-1] - track[-1 - n]) * fps / n
    return np.stack([v0, v1])


def targets_from_kinematic(motion, states, floor):
    """Build ReducedTargets from the kinematic-stage outputs."""
    skeleton = motion.skeleton
    positions, rotations = fk_positions_rotations(
        skeleton, motion.root_pos, motion.joint_angles)
    feet = positions[:, list(skeleton.foot_joint_ids)]
    hips = positions[:, list(skeleton.foot_hip_ids)]
    root_R = rotations[:, 0]
    offsets = np.einsum("tji,thj->thi", root_R, hips - states.r[:, None, :])
    T = motion.n_frames
    return ReducedTargets(
        fps=motion.fps, mass=states.mass,
        times=np.arange(T) / motion.fps,
        r=states.r, theta=states.theta, feet=feet, I_b=states.I_b,
        hip_offsets=offsets, floor=floor,
        l_leg=np.array(skeleton.l_leg), l_foot=np.array(skeleton.l_foot))


def _blocks(blocks):
    """Block-diagonal CSR matrix of per-sample derivative blocks (m, r, c).
    Block s spans columns c s to c s + c - 1: sample s's rows of a sample matrix."""
    m, r, c = blocks.shape
    cols = np.arange(m * c).reshape(m, 1, c).repeat(r, axis=1)
    return sparse.csr_matrix((blocks.ravel(), cols.ravel(),
                              np.arange(0, m * r * c + 1, c)), shape=(m * r, m * c))


def _xyz(cols):
    """The 3 columns col, col + 1, col + 2 of each entry of cols."""
    return (np.asarray(cols, dtype=int).reshape(-1, 1) + np.arange(3)).ravel()


def _interleave(mats, n):
    """The rows of a dict of sample matrices of n samples each, regrouped sample
    by sample, and each matrix's end column in one sample's values."""
    at = np.cumsum([0] + [M.shape[0] for M in mats.values()])
    order = np.concatenate([(a + np.arange(b - a)).reshape(n, -1)
                            for a, b in zip(at[:-1], at[1:])], axis=1)
    return sparse.vstack(list(mats.values()), format="csr")[order.ravel()], at[1:] // n


def _unstack(M, ends, x):
    """Each entry's values of interleaved sample rows M @ x: n x width."""
    return np.split((M @ x).reshape(-1, ends[-1]), ends[:-1], axis=1)


def _per_sample(block, M):
    """Constant rows block @ (each sample's rows of M)."""
    n = M.shape[0] // block.shape[1]
    return sparse.kron(sparse.eye(n), block, format="csr") @ M


def _mv(M, v):
    return np.einsum("nij,nj->ni", M, v)


def _euler_dynamics(th, thv, tha, I_b):
    """Rate of angular momentum I_w w' + w x I_w w of stacked Euler samples
    (angles, rates, accelerations; body inertias I_b), and its derivative
    blocks in the angles, the rates and the accelerations."""
    A = euler_rotation_axes(th)
    G = euler_rotation_axes_grad(th)
    H = euler_rotation_axes_hess(th)
    R = euler_to_matrix(th)
    dR = euler_to_matrix_grad(th)
    Rt = np.swapaxes(R, -1, -2)
    I_w = R @ I_b @ Rt

    w = _mv(A, thv)
    B = np.einsum("nick,nk->nic", G, thv)
    wdot = _mv(A, tha) + _mv(B, thv)
    Iw_w = _mv(I_w, w)
    h = _mv(I_w, wdot) + np.cross(w, Iw_w)

    M_th = np.empty(th.shape + (3,))
    M_tv = np.empty(th.shape + (3,))
    for c in range(3):
        dIw = dR[..., c] @ I_b @ Rt + R @ I_b @ np.swapaxes(dR[..., c], -1, -2)
        dw = _mv(G[..., c], thv)
        dwdot = _mv(G[..., c], tha) + _mv(np.einsum("nick,nk->nic", H[..., c], thv), thv)
        M_th[..., c] = (_mv(dIw, wdot) + _mv(I_w, dwdot) + np.cross(dw, Iw_w)
                        + np.cross(w, _mv(dIw, w) + _mv(I_w, dw)))
        dw_v = A[..., c]
        dwdot_v = _mv(G[..., c], thv) + B[..., c]
        M_tv[..., c] = (_mv(I_w, dwdot_v) + np.cross(dw_v, Iw_w)
                        + np.cross(w, _mv(I_w, dw_v)))
    return h, M_th, M_tv, I_w @ A


# (group, track, derivative order, weight, target name or None)
OBJECTIVE_TERMS = (
    ("data", "r", 0, 0.4, "r"),
    ("data", "theta", 0, 1.7, "theta"),
    ("data", "feet", 0, 0.3, "feet"),
    ("velocity", "r", 1, 1e-3, None),
    ("velocity", "theta", 1, 1e-3, None),
    ("velocity", "feet", 1, 0.1, None),
    ("acceleration", "r", 2, 1e-4, None),
    ("acceleration", "theta", 2, 1e-4, None),
    ("acceleration", "feet", 2, 1e-4, None),
)
# (track, order) of the rows that the nonlinear groups read at each sample,
# in their order in the interleaved sample matrices
DYN_SAMPLES = (("theta", 0), ("theta", 1), ("theta", 2), ("r", 0),
               ("forces", 0), ("feet", 0))
KIN_SAMPLES = (("r", 0), ("theta", 0), ("feet", 0))


class ReducedProblem:
    # foot joints are ordered (left toe, left heel, right toe, right heel)
    FOOT_PAIRS = ((0, 1), (2, 3))

    def __init__(self, layout, targets):
        self.layout = layout
        self.tg = targets
        self.up = up = targets.floor.normal
        self.tans = targets.floor.tangents
        self.floor_h = float(targets.floor.normal @ targets.floor.point)
        self.gravity = -GRAVITY * self.up
        eye = sparse.eye(layout.n_vars, format="csr")

        # dynamics samples ride the COM knot grid (spans [0, total])
        self.dyn_times = np.arange(layout.n_com + 1) * layout.com_delta
        self.kin_times = np.arange(0.0, layout.total + 1e-9, KIN_DT)
        nd, nk = len(self.dyn_times), len(self.kin_times)
        self.dyn_I_b = targets.interp(targets.I_b, self.dyn_times)
        self.kin_hip_offsets = targets.interp(targets.hip_offsets, self.kin_times)
        dyn = {key: layout.sampler(key[0], self.dyn_times, key[1]).S
               for key in DYN_SAMPLES}
        kin = {key: layout.sampler(key[0], self.kin_times, key[1]).S
               for key in KIN_SAMPLES}
        self.dyn, self.dyn_ends = _interleave(dyn, nd)
        self.kin, self.kin_ends = _interleave(kin, nk)

        # The dynamics stage's map x = x_fixed + P z. z holds every column
        # but the COM boundary velocities, which hold the targets' own, and
        # the stance constants, each floor_h n plus tangents^T z_c: stance
        # feet are on the floor by construction. P's columns are
        # orthonormal, so z = P^T (x - x_fixed).
        const = _xyz([ph.const_col for _, ph in layout.stance])
        bound = layout.bound_vel_cols
        self.x_fixed = np.zeros(layout.n_vars)
        self.x_fixed[bound] = np.concatenate([_boundary_velocities(track, targets.fps)
                                              for track in (targets.r, targets.theta)]).ravel()
        self.x_fixed[const] = np.tile(self.floor_h * up, len(layout.stance))
        self.free = np.setdiff1d(np.arange(layout.n_vars), np.concatenate([bound, const]))
        self.P = sparse.hstack([eye[:, self.free], eye[:, const] @ sparse.kron(
            sparse.eye(len(layout.stance)), self.tans.T)], format="csr")

        # A sampled foot row that reads stance constants alone is met by
        # construction (on the floor) or repeats the foot length of a pair of
        # toe and heel stance phases that share a frame or meet at a phase
        # bound. Such samples get no row, so no equality row is stated twice.
        stance = eye[const]
        self.stance_height = _per_sample(up[None], stance)
        other = np.ones(layout.n_vars)
        other[const] = 0.0

        def moves(feet):
            """Per sample and foot joint: whether it reads a non-stance column."""
            return (abs(feet) @ other > 0).reshape(-1, 4, 3).any(axis=2)

        floor_rows = _per_sample(up[None], dyn["feet", 0])[moves(dyn["feet", 0]).ravel()]
        pairs = np.array([(a.const_col, b.const_col, side)
                          for side, (toe, heel) in enumerate(self.FOOT_PAIRS)
                          for i, a in layout.stance if i == toe
                          for k, b in layout.stance if k == heel
                          if a.first_frame <= b.first_frame + b.n_frames
                          and b.first_frame <= a.first_frame + a.n_frames],
                         dtype=int).reshape(-1, 3)
        diffs = [eye[_xyz(pairs[:, 0])] - eye[_xyz(pairs[:, 1])]]
        sides = [pairs[:, 2]]
        kin_moves = moves(kin["feet", 0])
        for side, (toe, heel) in enumerate(self.FOOT_PAIRS):   # rows 12 t + 3 i + axis
            at = np.flatnonzero(kin_moves[:, toe] | kin_moves[:, heel])
            diffs.append(kin["feet", 0][_xyz(12 * at + 3 * toe)]
                         - kin["feet", 0][_xyz(12 * at + 3 * heel)])
            sides.append(np.full(len(at), side))
        self.foot_diff = sparse.vstack(diffs, format="csr")
        self.foot_len = targets.l_foot[np.concatenate(sides)]   # per row, its side's

        cone = layout.force_knot_sampler().S
        sizes = {"dynamics_linear": 3 * nd, "dynamics_angular": 3 * nd,
                 "leg_reach": 4 * nk, "foot_length": self.foot_diff.shape[0] // 3,
                 "above_floor": floor_rows.shape[0], "force_cone": 5 * cone.shape[0] // 3}
        ends = np.cumsum(list(sizes.values()))
        self.groups = {name: slice(end - size, end)
                       for (name, size), end in zip(sizes.items(), ends)}
        self.n_rows = int(ends[-1])

        # Nondimensionalise the rows so the solver sees everything at O(1):
        # force rows in units of body weight, torque rows in units of body
        # weight times leg length.  Geometry rows are already metre-scale.
        # Without this the Newton system mixes magnitudes ~1e3 apart and the
        # interior point stalls with a collapsed trust region.  Each group's
        # scale is folded into its constants and bounds below.
        weight = targets.mass * GRAVITY
        self.scale = scale = {"dynamics_linear": 1.0 / weight,
                              "dynamics_angular": 1.0 / (weight * targets.l_leg.max()),
                              "force_cone": 1.0 / weight}
        self.c_lb, self.c_ub = lb, ub = np.zeros((2, self.n_rows))
        lb[self.groups["leg_reach"]] = -np.inf      # leg reach: <= 0
        ub[self.groups["above_floor"]] = np.inf     # above floor: >= 0
        cone_rows = np.arange(self.groups["force_cone"].start, self.n_rows)
        ub[cone_rows] = np.inf
        # the normal row is f.n <= FORCE_MAX alone: f.n >= 0 is the sum of two faces
        lb[cone_rows[::5]], ub[cone_rows[::5]] = -np.inf, FORCE_MAX * scale["force_cone"]

        # linear groups: constant rows A and right-hand sides b, c = A x - b
        m, acc = targets.mass, layout.sampler("r", self.dyn_times, 2).S
        mu_up = FRICTION_RATIO * up
        faces = np.stack([up, mu_up - self.tans[0], mu_up + self.tans[0],
                          mu_up - self.tans[1], mu_up + self.tans[1]])
        self.linear = {   # m r'' - sum_i f_i = m g
            "dynamics_linear": (
                scale["dynamics_linear"]
                * (m * acc - _per_sample(np.tile(np.eye(3), 4), dyn["forces", 0])),
                np.tile(scale["dynamics_linear"] * m * self.gravity, nd)),
            # flight feet on or above the floor
            "above_floor": (floor_rows, self.floor_h),
            # friction cones: f.n <= FORCE_MAX, |f.t| <= mu f.n per tangent
            "force_cone": (_per_sample(scale["force_cone"] * faces, cone), 0.0)}

        # the objective: every term's rows in one stack A, with per row its target
        # b, weight w and group (objective_groups); the Hessian summed per term
        self.objective_groups = list(dict.fromkeys(g for g, *_ in OBJECTIVE_TERMS))
        rows, target = [], []
        self.hess = sparse.csr_matrix((layout.n_vars, layout.n_vars))
        for _, track, order, w, name in OBJECTIVE_TERMS:
            S = layout.sampler(track, targets.times, order).S
            rows.append(S)
            target.append(getattr(targets, name).ravel() if name else np.zeros(S.shape[0]))
            self.hess = self.hess + (2.0 * w) * (S.T @ S)
        term_rows = [S.shape[0] for S in rows]
        self.obj_A, self.obj_b = sparse.vstack(rows, format="csr"), np.concatenate(target)
        self.obj_w = np.repeat([w for *_, w, _ in OBJECTIVE_TERMS], term_rows)
        self.obj_group = np.repeat([self.objective_groups.index(g)
                                    for g, *_ in OBJECTIVE_TERMS], term_rows)

        self._c_key = self._c_value = None   # the last x's bytes, its constraints

    # -- constraint assembly ----------------------------------------------

    def _constraints(self, x):
        out = {name: (A @ x - b, A) for name, (A, b) in self.linear.items()}

        # angular dynamics: I_w w' + w x I_w w - sum_i f_i x (r - p_i) = 0
        v = dict(zip(DYN_SAMPLES, _unstack(self.dyn, self.dyn_ends, x)))
        r, f, p = v["r", 0], v["forces", 0].reshape(-1, 4, 3), v["feet", 0].reshape(-1, 4, 3)
        h, *M_theta = _euler_dynamics(*(v["theta", k] for k in range(3)), self.dyn_I_b)
        d = r[:, None] - p
        skew_f = skew(f)
        blocks = {("r", 0): -skew_f.sum(axis=1),
                  ("forces", 0): np.concatenate(skew(d).swapaxes(0, 1), axis=2),
                  ("feet", 0): np.concatenate(skew_f.swapaxes(0, 1), axis=2)}
        blocks.update({("theta", k): M for k, M in enumerate(M_theta)})
        s = self.scale["dynamics_angular"]
        out["dynamics_angular"] = (
            s * (h - np.cross(f, d).sum(axis=1)).ravel(),
            _blocks(s * np.concatenate([blocks[k] for k in DYN_SAMPLES], axis=2)) @ self.dyn)

        # leg reach: |p_i - hip_i|^2 <= l_leg_i^2
        v = dict(zip(KIN_SAMPLES, _unstack(self.kin, self.kin_ends, x)))
        th, o = v["theta", 0], self.kin_hip_offsets
        d = (v["feet", 0].reshape(-1, 4, 3) - v["r", 0][:, None]
             - np.einsum("nab,nib->nia", euler_to_matrix(th), o))
        blocks = {("r", 0): -2.0 * d,
                  ("theta", 0): -2.0 * np.einsum("nia,nabc,nib->nic", d,
                                                 euler_to_matrix_grad(th), o),
                  ("feet", 0): (2.0 * d[:, :, None] * np.eye(4)[:, :, None]).reshape(-1, 4, 12)}
        out["leg_reach"] = ((np.einsum("nia,nia->ni", d, d) - self.tg.l_leg ** 2).ravel(),
                            _blocks(np.concatenate([blocks[k] for k in KIN_SAMPLES],
                                                   axis=2)) @ self.kin)

        # rigid foot length
        d = (self.foot_diff @ x).reshape(-1, 3)
        out["foot_length"] = ((d * d).sum(axis=1) - self.foot_len ** 2,
                              _blocks(2.0 * d[:, None]) @ self.foot_diff)

        vals, jacs = zip(*(out[name] for name in self.groups))
        return np.concatenate(vals), sparse.vstack(jacs, format="csr")

    def contact_wrench(self, x, times):
        """Net contact force and moment about the COM that the COM motion of
        x demands at the given times: m (r'' - g) and I_w w' + w x I_w w."""
        lay, tg = self.layout, self.tg
        th, thv, tha = (lay.sampler("theta", times, order).values(x)
                        for order in range(3))
        acc = lay.sampler("r", times, 2).values(x)
        h = _euler_dynamics(th, thv, tha, tg.interp(tg.I_b, times))[0]
        return tg.mass * (acc - self.gravity), h

    # -- public constraint interface --------------------------------------

    def constraints(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != self._c_key:
            self._c_value, self._c_key = self._constraints(x), key
        return self._c_value

    def constraint_fun(self, x):
        return self.constraints(x)[0]

    def constraint_jac(self, x):
        return self.constraints(x)[1]

    # -- objective ---------------------------------------------------------

    def objective_fun(self, x):
        res = self.obj_A @ x - self.obj_b
        return res @ (self.obj_w * res)

    def objective_grad(self, x):
        return self.obj_A.T @ (2.0 * (self.obj_w * (self.obj_A @ x - self.obj_b)))

    def objective_hess(self, x):
        return self.hess

    def objective_breakdown(self, x):
        """Named objective terms: tracking and smoothness."""
        res = self.obj_A @ np.asarray(x, dtype=float) - self.obj_b
        sums = np.bincount(self.obj_group, weights=self.obj_w * res * res)
        return dict(zip(self.objective_groups, sums.tolist()))

    # -- reporting ---------------------------------------------------------

    def violation_by_group(self, x):
        """Max violation of each constraint group at x, and stance_on_floor,
        which has no rows: the stance constants' largest |n.c - floor_h|."""
        vals = self.constraint_fun(x)
        over = np.maximum(vals - self.c_ub, 0.0) + np.maximum(self.c_lb - vals, 0.0)
        heights = self.stance_height @ x - self.floor_h
        return {**{name: float(over[sl].max(initial=0.0)) for name, sl in self.groups.items()},
                "stance_on_floor": float(np.abs(heights).max(initial=0.0))}
