"""Staged kinematic cleanup: pose fit, floor estimation, contact-aware refit."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ..core.kinematics import compute_com_inertia, fk_positions_rotations
from ..core.preprocess import preprocess_low_confidence
from ..core.types import JointAngleMotion
from .floor import fit_floor_from_motion
from .init import initialize_from_3d
from .problem import KinematicProblem, KinfitWeights


@dataclass
class StageResult:
    x: np.ndarray
    cost: float
    n_iters: int
    converged: bool


@dataclass
class KinfitReport:
    stages: list = field(default_factory=list)   # (name, cost, iters, seconds)
    cost_breakdown: dict = field(default_factory=dict)


def solve_stage(problem, x0, max_iters=30, ftol=1e-6, gtol=1e-8, verbose=0):
    """Levenberg-Marquardt with direct sparse normal-equation solves.

    Damping is scaled by the diagonal of J^T J, which keeps the mixed
    translation/angle units well conditioned. Stops on relative cost
    decrease below ftol, gradient below gtol, or max_iters.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = problem.residuals(x)
    cost = float(r @ r)
    lam = 1e-4
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        J = problem.jacobian(x)
        g = J.T @ r
        if np.abs(g).max() < gtol * (1.0 + cost):
            converged = True
            break
        H = (J.T @ J).tocsc()
        d = np.maximum(H.diagonal(), 1e-10)
        accepted = False
        for _ in range(12):
            M = H + sparse.diags(lam * d, format="csc")
            try:
                step = splu(M).solve(-g)
            except RuntimeError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new = problem.residuals(x_new)
            c_new = float(r_new @ r_new)
            if c_new < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            converged = True   # no descent direction left at any damping
            break
        drop = cost - c_new
        x, r, cost = x_new, r_new, c_new
        lam = max(lam / 3.0, 1e-12)
        if verbose:
            print(f"    iter {it}: cost {cost:.6g} lambda {lam:.1e}")
        if drop < ftol * max(cost, 1e-12):
            converged = True
            break
    return StageResult(x=x, cost=cost, n_iters=it, converged=converged)


def run_kinematic_init(seq, skeleton, contacts, weights=None, max_iters=30,
                       verbose=0, floor=None):
    """Full kinematic stage of the pipeline.

    Scales the skeleton to the clip, fits pose to the 2D/3D estimates, fits
    a floor plane to the feet over the given contact labels (clearing labels
    the plane fit rejects), then refits with contact stillness and floor
    height terms. Passing a floor skips the plane fit and keeps the labels;
    evaluations against a known ground plane use this.

    Returns (motion, floor, contacts, states, report).
    """
    weights = weights or KinfitWeights()
    report = KinfitReport()
    seq = preprocess_low_confidence(seq)

    t0 = time.perf_counter()
    skeleton, root, angles = initialize_from_3d(seq, skeleton)
    report.stages.append(("init", float("nan"), 0, time.perf_counter() - t0))

    problem = KinematicProblem(seq, skeleton, weights=weights)
    t0 = time.perf_counter()
    res = solve_stage(problem, problem.pack(root, angles),
                      max_iters=max_iters, verbose=verbose)
    root, angles = problem.unpack(res.x)
    report.stages.append(("pose", res.cost, res.n_iters,
                          time.perf_counter() - t0))

    positions, _ = fk_positions_rotations(skeleton, root, angles)
    if floor is None:
        floor, contacts = fit_floor_from_motion(positions, contacts, skeleton)

    problem = KinematicProblem(seq, skeleton, contacts=contacts, floor=floor,
                               weights=weights)
    t0 = time.perf_counter()
    res = solve_stage(problem, res.x, max_iters=max_iters, verbose=verbose)
    root, angles = problem.unpack(res.x)
    motion = JointAngleMotion(skeleton=skeleton, fps=seq.fps,
                              root_pos=root, joint_angles=angles)
    report.stages.append(("contact", res.cost, res.n_iters,
                          time.perf_counter() - t0))
    report.cost_breakdown = problem.cost_breakdown(res.x)

    states = compute_com_inertia(motion)
    return motion, floor, contacts, states, report
