"""1D motion profiles used by the script generator.

Vertical center-of-mass plans are built from piecewise-linear acceleration on
a fixed node grid (0.1 s): the resulting position is piecewise cubic, so the
physics stage's spline basis can represent it exactly, and ballistic phases
are exact parabolas.
"""
from __future__ import annotations

import numpy as np

from ..core.kinematics import GRAVITY

STANCE_ACCEL_MIN = -GRAVITY   # below this the contact force would pull
STANCE_ACCEL_MAX = 22.0       # m/s^2, the strongest push a stance may plan


def integrate_pwl_accel(nodes, dt, v0=0.0, z0=0.0):
    """Velocity and position at the nodes of a piecewise-linear acceleration.

    Exact integrals: velocity is piecewise quadratic, position piecewise cubic.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    v = np.empty(n)
    z = np.empty(n)
    v[0], z[0] = v0, z0
    for i in range(n - 1):
        a0, a1 = nodes[i], nodes[i + 1]
        v[i + 1] = v[i] + 0.5 * (a0 + a1) * dt
        z[i + 1] = z[i] + v[i] * dt + 0.5 * a0 * dt * dt + (a1 - a0) * dt * dt / 6.0
    return v, z


def sample_pwl_accel(nodes, dt, t, v0=0.0, z0=0.0):
    """(z, zdot, zddot) at times t for the piecewise-linear acceleration profile.

    Exact within each segment: position is the segment cubic, not a numeric
    integral. t may be a scalar or an array inside [0, len(nodes)-1]*dt.
    """
    nodes = np.asarray(nodes, dtype=float)
    v, z = integrate_pwl_accel(nodes, dt, v0, z0)
    n_seg = len(nodes) - 1
    t = np.asarray(t, dtype=float)
    i = np.clip(np.floor(t / dt + 1e-12).astype(int), 0, n_seg - 1)
    s = t - i * dt
    a0, a1 = nodes[i], nodes[i + 1]
    slope = (a1 - a0) / dt
    acc = a0 + slope * s
    vel = v[i] + a0 * s + 0.5 * slope * s * s
    pos = z[i] + v[i] * s + 0.5 * a0 * s * s + slope * s ** 3 / 6.0
    return pos, vel, acc


def _integral_rows(n_seg, dt):
    """Row vectors giving end velocity and end displacement as linear maps of
    the node accelerations (for zero initial velocity and position)."""
    n = n_seg + 1
    cv = np.zeros(n)
    cz = np.zeros(n)
    for i in range(n_seg):
        e0, e1 = np.zeros(n), np.zeros(n)
        e0[i], e1[i + 1] = 1.0, 1.0
        seg_v = 0.5 * dt * (e0 + e1)
        cz += dt * cv + dt * dt * (e0 / 2.0 + (e1 - e0) / 6.0)
        cv += seg_v
    return cv, cz


def design_stance_accel(n_seg, dt, a_start, a_end, v_start, dv, dz):
    """Piecewise-linear acceleration hitting end values, a velocity change and
    a net displacement, bounded below so the implied contact force stays
    nonnegative.

    Returns the n_seg + 1 node accelerations of the smoothest such profile
    (least squared second differences), solved as a small bounded QP.
    """
    if n_seg < 3:
        raise ValueError(f"need at least 3 segments, got {n_seg}")
    n = n_seg + 1
    cv, cz = _integral_rows(n_seg, dt)
    # v_end = v_start + cv @ a;  z_end = v_start * T + cz @ a
    targets = np.array([dv, dz - v_start * n_seg * dt])
    A_full = np.stack([cv, cz])

    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i:i + 3] = (1.0, -2.0, 1.0)
    H_full = D.T @ D

    # endpoints are fixed; solve for the interior nodes
    ends = np.array([a_start, a_end])
    H = H_full[1:-1, 1:-1]
    g = 2.0 * H_full[1:-1, [0, -1]] @ ends
    A = A_full[:, 1:-1]
    b = targets - A_full[:, [0, -1]] @ ends
    interior = _solve_box_qp(H, g, A, b,
                             np.full(n - 2, STANCE_ACCEL_MIN),
                             np.full(n - 2, STANCE_ACCEL_MAX))
    nodes = np.concatenate([[a_start], interior, [a_end]])
    resid = np.abs(A_full @ nodes - targets).max()
    if resid > 1e-9 or np.isnan(nodes).any():
        raise ValueError(
            f"no acceleration profile meets the targets (residual {resid:.2e}); "
            "phase too short for the requested velocity/displacement change")
    return nodes


def _solve_box_qp(H, g, A, b, lb, ub):
    """min x'Hx + g'x  s.t.  Ax = b, lb <= x <= ub, for small dense problems.

    Active-set on the box: solve the equality-constrained KKT system, clamp
    the worst bound violator, repeat. Deterministic; returns a feasible point
    (optimal unless a clamped variable would want to release, which the
    profile shapes here never need).
    """
    n = len(g)
    m = A.shape[0]
    x = np.zeros(n)
    free = np.ones(n, dtype=bool)
    for _ in range(n + 1):
        f = np.flatnonzero(free)
        if len(f) < m:
            raise ValueError("too many clamped nodes; phase infeasible")
        clamped = ~free
        gf = g[f] + 2.0 * H[np.ix_(f, clamped)] @ x[clamped]
        bf = b - A[:, clamped] @ x[clamped]
        K = np.zeros((len(f) + m, len(f) + m))
        K[:len(f), :len(f)] = 2.0 * H[np.ix_(f, f)]
        K[:len(f), len(f):] = A[:, f].T
        K[len(f):, :len(f)] = A[:, f]
        rhs = np.concatenate([-gf, bf])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        x[f] = sol[:len(f)]
        below = lb[f] - x[f]
        above = x[f] - ub[f]
        worst = max(below.max(initial=0.0), above.max(initial=0.0))
        if worst <= 1e-10:
            return x
        if below.max(initial=0.0) >= above.max(initial=0.0):
            i = f[int(np.argmax(below))]
            x[i] = lb[i]
        else:
            i = f[int(np.argmax(above))]
            x[i] = ub[i]
        free[i] = False
    raise ValueError("box clamping failed to converge")


def swing_shift(tau):
    """Forward-progress curve with zero velocity at both ends, s(0)=0, s(1)=1."""
    tau = np.asarray(tau, dtype=float)
    return tau - np.sin(2.0 * np.pi * tau) / (2.0 * np.pi)


def swing_lift(tau):
    """Lift curve, zero value and slope at both ends, peak 1 at tau=0.5."""
    tau = np.asarray(tau, dtype=float)
    return np.sin(np.pi * tau) ** 2
