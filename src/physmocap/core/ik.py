"""Damped least-squares IK on joint targets for IK init's frame 0 (kinfit/init.py)
and the full-body upgrade (fullbody.py); one call solves a batch of frames."""
from __future__ import annotations

import numpy as np

from .kinematics import fk_jacobian, fk_positions_rotations

DAMPING = 1e-3   # initial Levenberg-Marquardt damping
TOL = 1e-8       # stop when a step lowers the cost by less than this share
BLOCK = 16       # frames whose normal equations are held in memory at once


def _solve(H, b):
    """Batch solve; a singular system gets a NaN step, not an error."""
    try:
        return np.linalg.solve(H, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan) if len(H) == 1 else np.concatenate(
            [_solve(H[i:i + 1], b[i:i + 1]) for i in range(len(H))])


def _normal_equations(skeleton, w3, angles, pos, rots, r):
    """Each frame's JᵀJ and Jᵀr, J's cols [root (3) | posed joints' angles (3K)]."""
    T, J = angles.shape[:2]
    root_cols = np.broadcast_to(np.tile(np.eye(3), (J, 1)), (T, 3 * J, 3))
    jac = fk_jacobian(skeleton, angles, pos, rots).reshape(T, 3 * J, -1)
    Jm = np.concatenate([root_cols, jac], axis=2)
    Jm *= w3[:, None]
    return np.swapaxes(Jm, 1, 2) @ Jm, np.einsum("tij,ti->tj", Jm, r)


def ik_solve_frame(skeleton, targets, weights, root_pos0, angles0, max_iters=100):
    """Fit root positions + joint angles so FK matches weighted 3D targets.

    Solves a batch of independent frames (targets T x J x 3, root_pos0 T x 3,
    angles0 T x J x 3, one J-vector of weights) under the one-frame solver's
    name, which the bench's tracer hooks. Each frame runs Levenberg-Marquardt
    with its own damping, retrying a step that does not lower its cost at 10x
    damping; it stops after 8 such tries in one iteration, or on a step that
    lowers its cost by less than TOL of it. Only posed joints' angles are
    solved; a leaf's angles keep their warm start. Returns (root_pos, angles).
    """
    targets = np.asarray(targets, dtype=float)
    w3 = np.repeat(np.asarray(weights, dtype=float), 3)
    root = np.array(root_pos0, dtype=float)
    angles = np.array(angles0, dtype=float)
    posed = list(skeleton.posed_joints())
    diag = np.arange(3 + 3 * len(posed))

    def residual(root, angles, targets):
        pos, rots = fk_positions_rotations(skeleton, root, angles)
        r = (pos - targets).reshape(len(root), -1) * w3
        return r, np.einsum("ti,ti->t", r, r), pos, rots

    r, cost, pos, rots = residual(root, angles, targets)
    lam, stop = np.full(len(root), DAMPING), np.zeros(len(root), dtype=bool)
    active = np.arange(len(root))          # the frames still iterating
    for _ in range(max_iters):
        if not active.size:
            break
        for a in np.split(active, range(BLOCK, active.size, BLOCK)):
            JtJ, g = _normal_equations(skeleton, w3, angles[a], pos[a], rots[a], r[a])
            trying = np.arange(len(a))     # rows of a without an accepted step
            for _try in range(8):
                f = a[trying]
                H = JtJ[trying]
                H[:, diag, diag] += lam[f, None] ** 2
                step = _solve(H, -g[trying])
                root1 = root[f] + step[:, :3]
                angles1 = angles[f]
                angles1[:, posed] += step[:, 3:].reshape(len(f), -1, 3)
                r1, cost1, pos1, rots1 = residual(root1, angles1, targets[f])
                ok = cost1 < cost[f]       # False on a singular system's NaN
                k = f[ok]
                stop[k] = cost[k] - cost1[ok] < TOL * np.maximum(cost1[ok], 1e-12)
                root[k], angles[k], cost[k] = root1[ok], angles1[ok], cost1[ok]
                r[k], pos[k], rots[k] = r1[ok], pos1[ok], rots1[ok]
                lam[f] = np.where(ok, np.maximum(lam[f] * 0.5, 1e-6), lam[f] * 10.0)
                trying = trying[~ok]
                if not trying.size:
                    break
            stop[a[trying]] = True         # 8 rejected tries
        active = active[~stop[active]]
    return root, angles
