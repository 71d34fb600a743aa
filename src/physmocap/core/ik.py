"""Damped least-squares inverse kinematics on one frame's joint targets, for
IK init's frame 0 (kinfit/init.py) and the full-body upgrade (fullbody.py)."""
from __future__ import annotations

import numpy as np

from .kinematics import fk_jacobian, fk_positions_rotations

DAMPING = 1e-3   # initial Levenberg-Marquardt damping
TOL = 1e-8       # stop when a step lowers the cost by less than this share


def _frame_residual(skeleton, root_pos, angles, targets, weights):
    pos, rots = fk_positions_rotations(skeleton, root_pos[None], angles[None])
    diff = (pos[0] - targets) * weights[:, None]
    return diff.ravel(), pos[0], rots


def ik_solve_frame(skeleton, targets, weights, root_pos0, angles0, max_iters=100):
    """Fit root position + joint angles so FK matches weighted 3D targets.

    Levenberg-Marquardt with multiplicative damping updates: steps that do not
    reduce the residual are rejected and retried with 10x damping. Returns
    (root_pos, angles, rms_error).
    """
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    J = skeleton.n_joints
    root = np.asarray(root_pos0, dtype=float).copy()
    angles = np.asarray(angles0, dtype=float).copy()

    r, pos, rots = _frame_residual(skeleton, root, angles, targets, weights)
    cost = r @ r
    lam = DAMPING
    # rows: 3 per joint; cols: [root (3) | angles (3J)]; leaf angle columns stay 0
    Jm = np.zeros((3 * J, 3 + 3 * J))
    posed_cols = 3 + (3 * np.array(skeleton.posed_joints())[:, None]
                      + np.arange(3)).ravel()
    for _ in range(max_iters):
        jac_angles = fk_jacobian(skeleton, angles[None], pos[None], rots)[0]
        Jm[:, :3] = np.tile(np.eye(3), (J, 1))
        Jm[:, posed_cols] = jac_angles.reshape(3 * J, -1)
        Jm *= np.repeat(weights, 3)[:, None]

        JtJ = Jm.T @ Jm
        g = Jm.T @ r
        for _try in range(8):
            H = JtJ + (lam * lam) * np.eye(JtJ.shape[0])
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_root = root + step[:3]
            new_angles = angles + step[3:].reshape(J, 3)
            r_new, pos_new, rots_new = _frame_residual(
                skeleton, new_root, new_angles, targets, weights)
            cost_new = r_new @ r_new
            if cost_new < cost:
                root, angles = new_root, new_angles
                improvement = cost - cost_new
                r, pos, rots, cost = r_new, pos_new, rots_new, cost_new
                lam = max(lam * 0.5, 1e-6)
                break
            lam *= 10.0
        else:
            break
        if improvement < TOL * max(cost, 1e-12):
            break
    n_eff = max(np.count_nonzero(weights), 1)
    rms = float(np.sqrt(cost / (3 * n_eff)))
    return root, angles, rms
