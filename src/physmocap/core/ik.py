"""Batched damped least-squares IK on joint targets (kinfit/init.py, fullbody.py);
a frame stops, untried, once its damped model promises a negligible step."""
from __future__ import annotations

import warnings

import numpy as np

from .kinematics import fk_jacobian, fk_positions_rotations, frame_layout

DAMPING = 1e-3   # initial Levenberg-Marquardt damping
TOL = 1e-8       # stop when a step lowers the cost by less than this share


def _solve(H, b):
    """Batch solve; a singular system gets a NaN step, not an error."""
    try:
        return np.linalg.solve(H, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan) if len(H) == 1 else np.concatenate(
            [_solve(H[i:i + 1], b[i:i + 1]) for i in range(len(H))])


def _normal_equations(skeleton, w3, angles, pos, rots, r):
    """Each frame's JᵀJ and Jᵀr, in frame_layout's columns."""
    Jm = fk_jacobian(skeleton, angles, pos, rots).reshape(len(angles), w3.size, -1)
    Jm *= w3[:, None]
    return np.swapaxes(Jm, 1, 2) @ Jm, np.einsum("tij,ti->tj", Jm, r)


def ik_solve_frame(skeleton, targets, weights, root_pos0, angles0, max_iters=100):
    """Fit root positions + joint angles so FK matches weighted 3D targets.

    Solves a batch of independent frames (targets T x J x 3, root_pos0 T x 3,
    angles0 T x J x 3, one J-vector of weights) under the one-frame solver's
    name, which the bench's tracer hooks. The frames still iterating form
    their normal equations in one batch, and each runs Levenberg-Marquardt
    with its own damping, retrying a step that does not lower its cost at
    10x damping. It stops after 8 such tries in one iteration, on a step
    that lowers its cost by less than TOL of it, or, before trying a step,
    when the damped model promises less than TOL of it (the usual LM stop on
    a negligible step; Madsen, Nielsen & Tingleff 2004, 3.2), so a converged
    frame costs no futile FK. Only posed joints' angles are solved; a leaf's
    angles keep their warm start. Warns with the count of frames still
    iterating when max_iters runs out. Returns (root_pos, angles).
    """
    targets = np.asarray(targets, dtype=float)
    w3 = np.repeat(np.asarray(weights, dtype=float), 3)
    root = np.array(root_pos0, dtype=float)
    angles = np.array(angles0, dtype=float)
    posed = list(skeleton.posed_joints())
    cols, _ = frame_layout(tuple(skeleton.parents))
    diag = np.arange(cols.size)

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
        JtJ, g = _normal_equations(skeleton, w3, angles[active], pos[active],
                                  rots[active], r[active])
        trying = np.arange(active.size)   # rows of active without an accepted step
        for _try in range(8):
            f = active[trying]
            H = JtJ[trying]
            H[:, diag, diag] += lam[f, None] ** 2
            step = _solve(H, -g[trying])
            # the damped model's drop, -gᵀs + λ²‖s‖² (NaN if singular)
            pred = np.einsum("ti,ti->t", step, lam[f, None] ** 2 * step - g[trying])
            futile = pred < TOL * np.maximum(cost[f], 1e-12)
            stop[f[futile]] = True
            trying, f, step = trying[~futile], f[~futile], step[~futile]
            if not trying.size:
                break
            root1 = root[f] + step[:, cols[:3]]
            angles1 = angles[f]
            angles1[:, posed] += step[:, cols[3:]].reshape(len(f), -1, 3)
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
        stop[active[trying]] = True    # 8 rejected tries
        active = active[~stop[active]]
    if active.size:
        warnings.warn(f"{active.size} of {len(root)} frames stopped at the IK "
                      "iteration cap")
    return root, angles
