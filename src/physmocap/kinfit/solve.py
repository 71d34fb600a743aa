"""Staged kinematic cleanup: pose fit, floor estimation, contact-aware refit."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

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


def splu(ab):
    """Banded Cholesky factorization, in place.

    ab is the lower band of a symmetric matrix in LAPACK's Fortran-ordered
    storage (ab[i - j, j] = a[i, j] for j <= i); it is overwritten by the
    factor, which is returned. Raises LinAlgError if the matrix is not
    positive definite. The name is an older one that perfbench's tracer
    still times the kinfit factorization under.
    """
    return cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)


def solve_stage(problem, x0, max_iters=30, ftol=1e-6, gtol=1e-8, verbose=0):
    """Levenberg-Marquardt with banded Cholesky normal-equation solves.

    The problem's frame-major variables make J^T J a band matrix. Its lower
    triangle is built once per iteration, the bandwidth read from its
    pattern, and each damped matrix is factored in one band buffer that is
    kept across iterations. Damping is scaled by the diagonal of J^T J,
    which keeps the mixed translation/angle units well conditioned; a
    matrix that is not positive definite raises the damping. Stops on
    relative cost decrease below ftol, gradient below gtol, or max_iters.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    r = problem.residuals(x)
    cost = float(r @ r)
    lam = 1e-4
    converged = False
    band = np.zeros((0, n), order="F")   # grown to the bandwidth below
    it = 0
    for it in range(1, max_iters + 1):
        J = problem.jacobian(x)
        g = J.T @ r
        if np.abs(g).max() < gtol * (1.0 + cost):
            converged = True
            break
        # lower triangle of H, entry by entry: row - column, column, value
        H = (J.T @ J).tocsc()
        cols = np.repeat(np.arange(n), np.diff(H.indptr))
        depth = H.indices - cols
        lower = depth >= 0
        depth, cols, values = depth[lower], cols[lower], H.data[lower]
        if depth.max() >= band.shape[0]:
            band = np.zeros((depth.max() + 1, n), order="F")
            flat = band.reshape(-1, order="F")   # a view of band's memory
        at = depth + band.shape[0] * cols       # band[depth, cols] in flat
        d = np.maximum(H.diagonal(), 1e-10)
        accepted = False
        for _ in range(12):
            flat.fill(0.0)
            flat[at] = values
            band[0] += lam * d
            try:
                step = cho_solve_banded((splu(band), True), -g, check_finite=False)
            except LinAlgError:
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
