"""Objective and constraints of the reduced-body trajectory optimization.

The model is a single rigid body: COM position r(t), orientation theta(t)
(Euler Z-Y-X), and four foot contact points p_i(t) with forces f_i(t), over
the contact phases of the labels. Dynamics are enforced at the COM knots:

    m r''         = sum_i f_i + m g
    I_w w' + w x I_w w = sum_i f_i x (r - p_i)

with w the world angular velocity of the Euler track and I_w the body
inertia from the kinematic fit rotated by the current orientation. Leg
reach and rigid foot length are enforced on a 0.08 s grid, feet stay on or
above the floor, and forces stay in a friction cone sampled at the force
spline knots and segment midpoints.

Every sampled track value is S @ x for a constant sparse sample matrix S
(trajectory.Samples), built once with the problem. The objective is the
weighted tracking and smoothness sum  sum_k w_k |S_k x - b_k|^2, with
gradient  2 sum_k w_k S_k^T (S_k x - b_k)  and the constant Hessian
2 sum_k w_k S_k^T S_k. Each constraint group is an array expression over
the samples; its Jacobian is a block matrix of per-sample derivatives times
the samples' matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    l_leg: float
    l_foot: float
    r_bound_vel: np.ndarray = field(init=False)   # 2 x 3
    theta_bound_vel: np.ndarray = field(init=False)

    def __post_init__(self):
        self.r_bound_vel = _boundary_velocities(self.r, self.fps)
        self.theta_bound_vel = _boundary_velocities(self.theta, self.fps)

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
        l_leg=skeleton.l_leg, l_foot=skeleton.l_foot)


class _Memo:
    """Single-entry cache keyed on the variable vector."""

    def __init__(self):
        self.key = None
        self.value = None

    def get(self, x, compute):
        key = x.tobytes()
        if key != self.key:
            self.value = compute(x)
            self.key = key
        return self.value


def _blocks(blocks, cols=None, n_col_blocks=None):
    """Sparse matrix of per-sample derivative blocks.

    blocks is (m, r, c) with cols (m,), or (m, q, r, c) with cols (m, q)
    for q blocks per block row; block row b holds blocks[b, q] (r x c) in
    block column cols[b, q]. cols defaults to the block diagonal.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim == 3:
        blocks = blocks[:, None]
    m, q, r, c = blocks.shape
    cols = np.arange(m) if cols is None else np.asarray(cols)
    n_col_blocks = m if n_col_blocks is None else n_col_blocks
    return sparse.bsr_matrix(
        (np.ascontiguousarray(blocks.reshape(m * q, r, c)), cols.ravel(),
         np.arange(0, m * q + 1, q)),
        shape=(m * r, n_col_blocks * c))


def _selection(cols, n_vars):
    """3 rows per entry of cols: x[col:col + 3]."""
    cols = np.asarray(cols, dtype=int)
    rows = np.arange(3 * len(cols))
    return sparse.csr_matrix(
        (np.ones(len(rows)), (rows, (cols[:, None] + np.arange(3)).ravel())),
        shape=(len(rows), n_vars))


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
# samples the constraints read: (name, track, order)
DYN_SAMPLES = (("acc", "r", 2), ("r", "r", 0), ("th", "theta", 0),
               ("thv", "theta", 1), ("tha", "theta", 2), ("f", "forces", 0),
               ("p", "feet", 0))
KIN_SAMPLES = (("r", "r", 0), ("th", "theta", 0), ("p", "feet", 0))


class ReducedProblem:
    # foot joints are ordered (left toe, left heel, right toe, right heel)
    FOOT_PAIRS = ((0, 1), (2, 3))

    def __init__(self, layout, targets):
        self.layout = layout
        self.tg = targets
        self.up = targets.floor.normal
        self.tans = targets.floor.tangents
        self.floor_h = float(targets.floor.normal @ targets.floor.point)
        self.gravity = -GRAVITY * self.up

        # dynamics samples ride the COM knot grid (spans [0, total])
        self.dyn_times = np.arange(layout.n_com + 1) * layout.com_delta
        self.kin_times = np.arange(0.0, layout.total + 1e-9, KIN_DT)
        self.dyn_I_b = targets.interp(targets.I_b, self.dyn_times)
        self.kin_hip_offsets = targets.interp(targets.hip_offsets, self.kin_times)
        self.cone = layout.force_knot_sampler()
        self.n_cone = self.cone.shape[0]
        self.stance_sel = _selection([ph.const_col for _, ph in layout.stance],
                                     layout.n_vars)

        # Rigid foot length. When toe and heel are both planted the sampled
        # rows all collapse onto the two stance constants, which would give
        # duplicated equality rows and a singular constraint Jacobian, so
        # those intervals get one row per pair of stance phases that share a
        # frame instead. Swing samples keep the 0.08 s grid.
        pairs = [(a.const_col, b.const_col) for toe, heel in self.FOOT_PAIRS
                 for i, a in layout.stance if i == toe
                 for k, b in layout.stance if k == heel
                 if a.first_frame < b.first_frame + b.n_frames
                 and b.first_frame < a.first_frame + a.n_frames]
        contact = layout.in_contact(self.kin_times)
        self.footlen_times = [      # (toe, heel, kin_times indices)
            (toe, heel, np.flatnonzero(~(contact[:, toe] & contact[:, heel])))
            for toe, heel in self.FOOT_PAIRS]
        self.footlen_sel = (_selection([c for c, _ in pairs], layout.n_vars)
                            - _selection([c for _, c in pairs], layout.n_vars))
        nd, nk = len(self.dyn_times), len(self.kin_times)
        sizes = {"dynamics_linear": 3 * nd, "dynamics_angular": 3 * nd,
                 "leg_reach": 4 * nk,
                 "foot_length": (len(pairs) + sum(len(t) for _, _, t
                                                  in self.footlen_times)),
                 "stance_on_floor": len(layout.stance),
                 "above_floor": 4 * nd, "force_cone": 5 * self.n_cone}
        ends = np.cumsum(list(sizes.values()))
        self.groups = {name: slice(end - size, end)
                       for (name, size), end in zip(sizes.items(), ends)}
        self.n_rows = int(ends[-1])

        lb, ub = np.zeros((2, self.n_rows))
        sl = self.groups
        lb[sl["leg_reach"]] = -np.inf               # leg reach: <= 0
        ub[sl["above_floor"]] = np.inf              # above floor: >= 0
        cone = np.arange(sl["force_cone"].start, self.n_rows)
        ub[cone] = np.inf
        ub[cone[::5]] = FORCE_MAX                   # 0 <= f.n <= FORCE_MAX

        # Nondimensionalise the rows so the solver sees everything at O(1):
        # force rows in units of body weight, torque rows in units of body
        # weight times leg length.  Geometry rows are already metre-scale.
        # Without this the Newton system mixes magnitudes ~1e3 apart and the
        # interior point stalls with a collapsed trust region.
        weight = targets.mass * GRAVITY
        scale = np.ones(self.n_rows)
        scale[sl["dynamics_linear"]] = 1.0 / weight
        scale[sl["dynamics_angular"]] = 1.0 / (weight * targets.l_leg)
        scale[sl["force_cone"]] = 1.0 / weight
        self.row_scale = scale
        self.c_lb, self.c_ub = lb * scale, ub * scale

        # constant sample matrices: the objective terms and their Hessian,
        # and the samples that the constraints read
        self.terms = []
        hess = sparse.csr_matrix((layout.n_vars, layout.n_vars))
        for group, track, order, w, target in OBJECTIVE_TERMS:
            smp = layout.sampler(track, targets.times, order)
            self.terms.append((group, w, smp,
                               getattr(targets, target) if target else 0.0))
            hess = hess + (2.0 * w) * (smp.S.T @ smp.S)
        self.hess = hess
        self.dyn = {name: layout.sampler(track, self.dyn_times, order)
                    for name, track, order in DYN_SAMPLES}
        self.kin = {name: layout.sampler(track, self.kin_times, order)
                    for name, track, order in KIN_SAMPLES}

        self._c_memo = _Memo()
        self._o_memo = _Memo()

    # -- constraint assembly ----------------------------------------------

    def _constraints(self, x):
        tg, m, up = self.tg, self.tg.mass, self.up
        dyn = {k: (s.values(x), s.S) for k, s in self.dyn.items()}
        kin = {k: (s.values(x), s.S) for k, s in self.kin.items()}
        (acc, J_acc), (r, J_r), (f, J_f), (p, J_p) = (
            dyn[k] for k in ("acc", "r", "f", "p"))
        nd, nk = len(self.dyn_times), len(self.kin_times)
        per_joint = 4 * np.arange(nd)[:, None] + np.arange(4)
        vals, jacs = [], []

        # linear dynamics: m r'' - sum_i f_i = m g
        vals.append(m * (acc - self.gravity) - f.sum(axis=1))
        jacs.append(m * J_acc + _blocks(np.broadcast_to(-np.eye(3), (nd, 4, 3, 3)),
                                        per_joint, 4 * nd) @ J_f)

        # angular dynamics: I_w w' + w x I_w w - sum_i f_i x (r - p_i) = 0
        h, M_th, M_tv, M_ta = _euler_dynamics(
            dyn["th"][0], dyn["thv"][0], dyn["tha"][0], self.dyn_I_b)
        d = r[:, None] - p
        skew_f = skew(f)
        vals.append(h - np.cross(f, d).sum(axis=1))
        jacs.append(_blocks(M_th) @ dyn["th"][1] + _blocks(M_tv) @ dyn["thv"][1]
                    + _blocks(M_ta) @ dyn["tha"][1]
                    - _blocks(skew_f.sum(axis=1)) @ J_r
                    + _blocks(skew(d), per_joint, 4 * nd) @ J_f
                    + _blocks(skew_f, per_joint, 4 * nd) @ J_p)

        # leg reach: |p_i - hip_i|^2 <= l_leg^2
        (rk, J_rk), (thk, J_thk), (pk, J_pk) = (kin[k] for k in ("r", "th", "p"))
        R = euler_to_matrix(thk)
        o = self.kin_hip_offsets
        d = pk - rk[:, None] - np.einsum("nab,nib->nia", R, o)
        grad_th = -2.0 * np.einsum("nia,nabc,nib->nic", d, euler_to_matrix_grad(thk), o)
        time_of = np.repeat(np.arange(nk), 4)
        vals.append(np.einsum("nia,nia->ni", d, d) - tg.l_leg ** 2)
        jacs.append(_blocks(2.0 * d.reshape(-1, 1, 3)) @ J_pk
                    + _blocks(-2.0 * d.reshape(-1, 1, 3), time_of, nk) @ J_rk
                    + _blocks(grad_th.reshape(-1, 1, 3), time_of, nk) @ J_thk)

        # rigid foot length: overlapping stance pairs, then swing samples
        d = (self.footlen_sel @ x).reshape(-1, 3)
        vals.append((d * d).sum(axis=1) - tg.l_foot ** 2)
        jacs.append(_blocks(2.0 * d[:, None]) @ self.footlen_sel)
        for toe, heel, at in self.footlen_times:
            d = pk[at, toe] - pk[at, heel]
            vals.append((d * d).sum(axis=1) - tg.l_foot ** 2)
            jacs.append(_blocks(np.stack([2.0 * d, -2.0 * d], axis=1)[:, :, None],
                                4 * at[:, None] + [toe, heel], 4 * nk) @ J_pk)

        # stance constants on the floor, feet on or above it
        stance = (self.stance_sel @ x).reshape(-1, 3)
        vals.append(stance @ up - self.floor_h)
        jacs.append(_blocks(np.broadcast_to(up, (len(stance), 1, 3))) @ self.stance_sel)
        vals.append(p @ up - self.floor_h)
        jacs.append(_blocks(np.broadcast_to(up, (4 * nd, 1, 3))) @ J_p)

        # friction cones: 0 <= f.n, |f.t| <= mu f.n per tangent
        mu_up = FRICTION_RATIO * up
        cone = np.stack([up, mu_up - self.tans[0], mu_up + self.tans[0],
                         mu_up - self.tans[1], mu_up + self.tans[1]])
        vals.append(self.cone.values(x) @ cone.T)
        jacs.append(_blocks(np.broadcast_to(cone, (self.n_cone, 5, 3))) @ self.cone.S)

        vals = np.concatenate([v.ravel() for v in vals])
        jac = sparse.vstack(jacs, format="csr")
        return vals * self.row_scale, sparse.diags(self.row_scale) @ jac

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
        return self._c_memo.get(np.asarray(x, dtype=float), self._constraints)

    def constraint_fun(self, x):
        return self.constraints(x)[0]

    def constraint_jac(self, x):
        return self.constraints(x)[1]

    # -- objective ---------------------------------------------------------

    def _residuals(self, x):
        """(group, weight, samples, residual) of every tracking term."""
        return [(group, w, smp, (smp.values(x) - target).ravel())
                for group, w, smp, target in self.terms]

    def _objective(self, x):
        total, grad = 0.0, np.zeros(self.layout.n_vars)
        for _, w, smp, res in self._residuals(x):
            total += w * (res @ res)
            grad += (2.0 * w) * (smp.S.T @ res)
        return total, grad, self.hess

    def objective(self, x):
        return self._o_memo.get(np.asarray(x, dtype=float), self._objective)

    def objective_fun(self, x):
        return self.objective(x)[0]

    def objective_grad(self, x):
        return self.objective(x)[1]

    def objective_hess(self, x):
        return self.hess

    def objective_breakdown(self, x):
        """Named objective terms: tracking and smoothness."""
        out = {"data": 0.0, "velocity": 0.0, "acceleration": 0.0}
        for group, w, _, res in self._residuals(x):
            out[group] += float(w * (res @ res))
        return out

    # -- reporting ---------------------------------------------------------

    def violation_by_group(self, x):
        """Max violation of each constraint group at x."""
        vals = self.constraint_fun(x)
        over = np.maximum(vals - self.c_ub, 0.0) + np.maximum(self.c_lb - vals, 0.0)
        return {name: float(over[sl].max()) if sl.stop > sl.start else 0.0
                for name, sl in self.groups.items()}
