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
    cost: float
    n_iters: int


@dataclass
class KinfitReport:
    # (name, cost, iters, seconds); cost is None for IK init, which has none
    stages: list = field(default_factory=list)
    cost_breakdown: dict = field(default_factory=dict)


def splu(ab):
    """Banded Cholesky factorization, in place.

    ab is the lower band of a symmetric matrix in LAPACK's Fortran-ordered
    storage (ab[i - j, j] = a[i, j] for j <= i); it is overwritten by the
    factor, which is returned. Raises LinAlgError if the matrix is not
    positive definite. The name is an older one that perfbench's tracer
    still times the kinfit factorization under (its kinfit.splu_* rows).
    """
    return cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)


def _sheared(blocks):
    """LAPACK's lower band of H, ab[d, t nf + c] at [t, c, d], as a strided view
    of blocks[t, o] = H[t + o, t] (T x 4 x nf x nf, blocks[:, 3] zero)."""
    T, _, nf, _ = blocks.shape
    step = blocks.itemsize
    return as_strided(blocks, (T, nf, 3 * nf), (4 * nf * nf * step, (nf + 1) * step,
                                                nf * step), writeable=False)


def solve_stage(problem, x0, max_iters):
    """Levenberg-Marquardt with banded Cholesky normal-equation solves.

    The problem's frame-major variables make J^T J a band of frame-pair
    blocks two frames deep, so the layout fixes its lower bandwidth at
    3 nf - 1 (nf variables per frame; 188 for the default skeleton, whose
    frames hold 63). The Jacobian writes the blocks into a buffer kept
    across iterations; each damped matrix is copied from it into one band
    buffer and factored there. Damping is scaled by the diagonal of
    J^T J, which keeps the mixed translation/angle units well conditioned; a
    matrix that is not positive definite raises the damping. Stops on a
    relative cost decrease below FTOL, a gradient below GTOL, or max_iters.
    """
    x = np.asarray(x0, dtype=float).copy()
    n, T = x.size, problem.T
    nf = n // T
    r = problem.residuals(x)
    cost = float(r @ r)
    lam = 1e-4
    blocks = np.zeros((T, 4, nf, nf))
    band = np.empty((3 * nf, n), order="F")
    sheared, band_rows = _sheared(blocks), band.T.reshape(T, nf, 3 * nf)
    it = 0
    for it in range(1, max_iters + 1):
        J = problem.jacobian(x)
        g = J.T @ r
        if np.abs(g).max() < GTOL * (1.0 + cost):
            break
        J.normal_blocks(blocks[:, :3])
        d = np.maximum(sheared[..., 0].ravel(), 1e-10)
        accepted = False
        for _ in range(12):
            band_rows[...] = sheared
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
        if not accepted:   # no descent direction left at any damping
            break
        drop = cost - c_new
        x, r, cost = x_new, r_new, c_new
        lam = max(lam / 3.0, 1e-12)
        if drop < FTOL * max(cost, 1e-12):
            break
    return StageResult(x=x, cost=cost, n_iters=it)


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
    report.cost_breakdown = problem.cost_breakdown(res.x)

    states = compute_com_inertia(motion)
    return motion, floor, contacts, states, report
