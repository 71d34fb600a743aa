"""Kinematic cleanup: IK init, a floor fit if no floor is given, one LM fit."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from ..core.kinematics import compute_com_inertia
from ..core.preprocess import preprocess_low_confidence
from ..core.types import JointAngleMotion
from .floor import fit_floor_from_motion
from .init import initialize_from_3d
from .problem import KinematicProblem

FTOL = 1e-6   # stop when an accepted step lowers the cost by less than this share
GTOL = 1e-8   # stop when the gradient's max entry is below this times (1 + cost)


@dataclass
class StageResult:
    x: np.ndarray
    r: np.ndarray   # the residuals at x
    cost: float
    n_iters: int
    stop: str
    n_factorizations: int


@dataclass
class KinfitReport:
    # (name, cost, iters, seconds); cost is None for IK init, which has none
    stages: list = field(default_factory=list)
    cost_breakdown: dict = field(default_factory=dict)
    stops: dict = field(default_factory=dict)   # LM stage -> stop, factorizations


def splu(ab):
    """Banded Cholesky factorization, in place.

    ab is the lower band of a symmetric matrix in LAPACK's Fortran-ordered
    storage (ab[i - j, j] = a[i, j] for j <= i); it is overwritten by the
    factor, which is returned. Raises LinAlgError if the matrix is not
    positive definite. The name is an older one that perfbench's tracer
    still times the kinfit factorization under (its kinfit.splu_* rows).
    """
    return cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)


def normal_buffer(problem):
    """(blocks, lower_band): blocks[t, o] = H[t + o, t] (T x 3 x nf x nf), which
    FrameJacobian.normal_blocks fills, and lower_band(ab), which copies H's lower
    band into LAPACK's ab ((kd + 1) x n, Fortran order) through a strided view,
    zeroing the entries it reads three frames down (the next frame's block)."""
    T, nf, kd = problem.T, problem.n_vars // problem.T, problem.kd
    planes = np.zeros((3 * T + 1, nf, nf))   # the extra zero plane keeps the view in bounds
    s0, s1, s2 = planes.strides
    sheared = as_strided(planes, (T, nf, kd + 1), (3 * s0, s1 + s2, s1), writeable=False)
    near = (np.arange(nf)[:, None] + np.arange(kd + 1) < 3 * nf).astype(float)   # [c, d]
    return (planes[:3 * T].reshape(T, 3, nf, nf),
            lambda ab: np.multiply(sheared, near, out=ab.T.reshape(T, nf, kd + 1)))


def solve_stage(problem, x0, max_iters):
    """Levenberg-Marquardt with banded Cholesky normal-equation solves.

    J^T J is a band of frame-pair blocks two frames deep, problem.kd below
    the diagonal (164 for the default skeleton, whose frame layout keeps each
    root subtree's columns together; 3 nf - 1 = 188 without it). Beside the
    blocks' buffer (normal_buffer), each phase of an iteration holds only its
    own large arrays: the Jacobian (FK blocks, projection rows) while it is
    built and gives the gradient J^T r (FrameJacobian.rmatvec) and the
    blocks; then one band buffer, into which each damped matrix is copied
    and factored, beside the trial's residuals and FK.
    Damping is scaled by the diagonal of J^T J, which keeps the mixed
    translation/angle units well conditioned; a matrix that is not positive
    definite raises the damping. Stops on a relative cost decrease below FTOL
    ("ftol"), a gradient below GTOL ("gtol"), max_iters, or when no damping
    lowers the cost ("no_descent"); the result says which, and the number of
    factorizations.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = problem.residuals(x)
    cost = float(r @ r)
    lam = 1e-4
    blocks, lower_band = normal_buffer(problem)
    it, stop, n_chol = 0, "max_iters", 0
    for it in range(1, max_iters + 1):
        J = problem.jacobian(x)
        g = J.rmatvec(r)
        if np.abs(g).max() < GTOL * (1.0 + cost):
            stop = "gtol"
            break
        J.normal_blocks(blocks)
        del J
        d = np.maximum(blocks[:, 0].diagonal(0, 1, 2).ravel(), 1e-10)
        band = np.empty((problem.kd + 1, x.size), order="F")
        for _ in range(12):
            lower_band(band)
            band[0] += lam * d
            n_chol += 1
            try:
                step = cho_solve_banded((splu(band), True), -g, check_finite=False)
            except LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new = problem.residuals(x_new)
            c_new = float(r_new @ r_new)
            if c_new < cost:
                break
            lam *= 10.0
        else:   # no descent direction left at any damping
            stop = "no_descent"
            break
        del band
        drop = cost - c_new
        x, r, cost = x_new, r_new, c_new
        lam = max(lam / 3.0, 1e-12)
        if drop < FTOL * max(cost, 1e-12):
            stop = "ftol"
            break
    return StageResult(x=x, r=r, cost=cost, n_iters=it, stop=stop, n_factorizations=n_chol)


def run_kinematic_init(seq, skeleton, contacts, max_iters=30, floor=None):
    """Full kinematic stage of the pipeline.

    Scales the skeleton to the clip and fits frame 0 (initialize_from_3d),
    then fits every frame to the 2D/3D estimates with contact stillness and
    floor height terms, in one LM stage from that start. Without a floor,
    the floor plane is first fitted to the estimate's 3D feet over the given
    contact labels, and labels the plane fit rejects are cleared; a given
    floor keeps the labels. Evaluations against a known ground plane pass
    one.

    Returns (motion, floor, contacts, states, report).
    """
    report = KinfitReport()
    seq = preprocess_low_confidence(seq)

    t0 = time.perf_counter()
    skeleton, root, angles = initialize_from_3d(seq, skeleton)
    report.stages.append(("init", None, 0, time.perf_counter() - t0))

    if floor is None:
        floor, contacts = fit_floor_from_motion(seq.joints3d, contacts, skeleton)

    problem = KinematicProblem(seq, skeleton, contacts=contacts, floor=floor)
    t0 = time.perf_counter()
    res = solve_stage(problem, problem.pack(root, angles), max_iters=max_iters)
    root, angles = problem.unpack(res.x)
    motion = JointAngleMotion(skeleton=skeleton, fps=seq.fps,
                              root_pos=root, joint_angles=angles)
    report.stages.append(("contact", res.cost, res.n_iters,
                          time.perf_counter() - t0))
    report.stops["contact"] = {"stop": res.stop, "factorizations": res.n_factorizations}
    report.cost_breakdown = problem.cost_breakdown(res.r)

    states = compute_com_inertia(motion)
    return motion, floor, contacts, states, report
