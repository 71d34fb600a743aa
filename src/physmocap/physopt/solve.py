"""Staged solve of the reduced-body trajectory optimization.

Stage "fit" is a linear least-squares fill-in of the spline knots against
the kinematic targets (one sparse factorization; the tracking objective is
quadratic in the knots), plus a static force guess that distributes the net
contact wrench between the feet in contact. Stage "dynamics" runs the full
nonlinear program from there. The contact phase durations are those of the
labels throughout.

The dynamics stage holds the COM boundary velocity knots at their fitted
values by leaving their columns out of its decision vector, not by an
``lb == ub`` bound: trust-constr's interior point does not keep its
iterates on such bounds. Gradient, Hessian and Jacobian reach the stage's
vector through the same column selection.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import NonlinearConstraint, minimize
from scipy.sparse.linalg import splu

from ..core.rotation import skew
from .problem import FORCE_MAX, ReducedProblem
from .trajectory import CentroidalTrajectory, TrajectoryLayout

VIOLATION_TOL = 1e-6


@dataclass
class StageReport:
    name: str
    objective: float
    violations: dict
    n_iters: int
    status: int
    success: bool
    wall_time: float

    @property
    def max_violation(self):
        return max(self.violations.values()) if self.violations else 0.0


@dataclass
class PhysOptReport:
    stages: list = field(default_factory=list)
    objective_terms: dict = field(default_factory=dict)

    @property
    def max_violation(self):
        return self.stages[-1].max_violation if self.stages else np.inf

    @property
    def converged(self):
        return bool(self.stages and self.stages[-1].success
                    and self.max_violation < VIOLATION_TOL)


def initial_guess(problem):
    """Linear least-squares knot fit plus a static contact-force guess."""
    lay, tg = problem.layout, problem.tg
    up, floor_h = problem.up, problem.floor_h
    x = np.zeros(lay.n_vars)

    # stance constants: phase-mean foot target projected onto the floor
    for i, phases in enumerate(lay.joint_phases):
        for ph in phases:
            if not ph.contact:
                continue
            c = tg.feet[ph.first_frame:ph.first_frame + ph.n_frames, i].mean(axis=0)
            c -= (up @ c - floor_h) * up
            x[ph.const_col:ph.const_col + 3] = c

    # flight knots: start from the interpolated foot targets
    for i, phases in enumerate(lay.joint_phases):
        for ph in phases:
            if not ph.contact:
                n = ph.n_segs
                delta = ph.duration0 / n
                for k in range(n + 1):
                    t = min(ph.start0 + k * delta, tg.times[-1])
                    if ph.pos_cols[k] >= 0 and ph.vel_cols[k] >= 0:
                        pc, vc = ph.pos_cols[k], ph.vel_cols[k]
                        x[pc:pc + 3] = tg.interp(tg.feet, t)[i]
                        x[vc:vc + 3] = 0.0

    # COM knots: sample the targets, then one exact Newton step on the
    # quadratic tracking objective over the free knot columns
    for k in range(lay.n_com + 1):
        t = min(k * lay.com_delta, tg.times[-1])
        for which, track in ((0, tg.r), (1, tg.theta)):
            pc, vc = lay.com_knot_cols(which, k)
            x[pc:pc + 3] = tg.interp(track, t)
    bound_vel = _boundary_velocity_cols(lay)
    x[bound_vel] = np.concatenate([tg.r_bound_vel, tg.theta_bound_vel]).ravel()

    free = np.ones(lay.n_vars, dtype=bool)
    for i, phases in enumerate(lay.joint_phases):
        for ph in phases:
            if ph.contact:
                free[ph.const_col:ph.const_col + 3] = False
                free[ph.force_col:ph.force_col + 6 * (ph.n_segs + 1)] = False
    free[bound_vel] = False
    cols = np.flatnonzero(free)

    _, grad, hess = problem.objective(x)
    sub = hess[cols][:, cols].tocsc()
    sub = sub + sparse.eye(len(cols), format="csc") * 1e-9
    x[cols] += splu(sub).solve(-grad[cols])

    # static forces: distribute the net contact wrench of the fitted motion
    # between the feet in contact at each force knot (least-squares over
    # force and torque balance), each force clipped into the friction cone
    knots = [(i, ph.force_col + 6 * k, ph.start0 + k * (ph.duration0 / ph.n_segs))
             for i, phases in enumerate(lay.joint_phases)
             for ph in phases if ph.contact for k in range(ph.n_segs + 1)]
    joint, cols, times = (np.array(v) for v in zip(*knots))
    wrench = np.concatenate(problem.contact_wrench(x, times), axis=1)
    arm = (lay.sampler("feet", times).values(x)
           - lay.sampler("r", times).values(x)[:, None])
    contact = np.stack([np.array([ph.contact for ph in phases])[lay.phase_of(i, times)[0]]
                        for i, phases in enumerate(lay.joint_phases)], axis=1)
    for i, b, w, a, on in zip(joint, cols, wrench, arm, contact):
        f = np.zeros(3)
        if on[i]:
            ids = np.flatnonzero(on)
            A = np.concatenate([np.tile(np.eye(3), len(ids)),
                                np.concatenate(skew(a[ids]), axis=1)])
            f = np.linalg.lstsq(A, w, rcond=None)[0].reshape(-1, 3)[
                np.searchsorted(ids, i)]
        fn = np.clip(up @ f, 0.0, 0.9 * FORCE_MAX)
        ft = np.array([tdir @ f for tdir in problem.tans])
        ft = np.clip(ft, -0.45 * fn, 0.45 * fn)
        x[b:b + 3] = fn * up + ft[0] * problem.tans[0] + ft[1] * problem.tans[1]
        x[b + 3:b + 6] = 0.0
    return x


def _boundary_velocity_cols(layout):
    """Velocity columns of the first and last COM knots: r at knot 0 and at
    knot n_com, then theta likewise. They hold the targets' boundary
    velocities, and no stage moves them."""
    return np.array([layout.com_knot_cols(which, k)[1] + a
                     for which in (0, 1) for k in (0, layout.n_com)
                     for a in range(3)])


def _stage_map(layout, x0):
    """The stage's decision vector z as x = x_fixed + P @ z.

    z holds every column but the COM boundary velocities, in order; P
    selects them, and x_fixed holds x0's boundary velocities.
    """
    n = layout.n_vars
    moved = np.ones(n, dtype=bool)
    moved[_boundary_velocity_cols(layout)] = False
    free = np.flatnonzero(moved)
    P = sparse.csr_matrix((np.ones(len(free)), (free, np.arange(len(free)))),
                          shape=(n, len(free)))
    return P, np.where(moved, 0.0, x0), free


def _run_stage(problem, x0, stage, max_iters, verbose, callback=None):
    """One trust-constr stage, named stage, over the columns it moves.

    The other columns keep their values in x0 (see _stage_map). The
    returned x, and the iterates passed to callback, are full-length
    vectors.
    """
    x0 = np.asarray(x0, dtype=float)
    P, x_fixed, free = _stage_map(problem.layout, x0)
    PT = P.T.tocsr()

    def full(z):
        return x_fixed + P @ z

    # the objective Hessian is constant, so it is projected once
    hess = PT @ problem.objective_hess(x0) @ P
    nlc = NonlinearConstraint(
        lambda z: problem.constraint_fun(full(z)), problem.c_lb, problem.c_ub,
        jac=lambda z: problem.constraint_jac(full(z)) @ P)
    stage_callback = None
    if callback is not None:
        def stage_callback(z, state):
            return callback(full(z), state)
    t0 = time.perf_counter()
    res = minimize(lambda z: problem.objective_fun(full(z)), x0[free],
                   jac=lambda z: PT @ problem.objective_grad(full(z)),
                   hess=lambda z: hess, method="trust-constr",
                   constraints=[nlc], callback=stage_callback,
                   options={"maxiter": max_iters, "gtol": 1e-6, "xtol": 1e-10,
                            "verbose": verbose})
    x = full(res.x)
    report = StageReport(
        name=stage, objective=float(res.fun),
        violations=problem.violation_by_group(x),
        n_iters=int(res.niter), status=int(res.status),
        success=bool(res.status in (1, 2)), wall_time=time.perf_counter() - t0)
    return x, report


def solve_reduced(targets, contacts, weights=None, max_iters=3000,
                  duration_stage=None, verbose=0, collect_iterates=None):
    """Run the staged trajectory optimization: fit, then dynamics.

    duration_stage has no effect. perfbench's microtimings still pass it;
    ROADMAP item 4's benchmark change drops that, and then this keyword.
    Returns (CentroidalTrajectory, report, problem). If collect_iterates
    is a list, the dynamics stage's iterates are appended to it.
    """
    layout = TrajectoryLayout(contacts)
    problem = ReducedProblem(layout, targets, weights)
    t0 = time.perf_counter()
    x0 = initial_guess(problem)
    fit_time = time.perf_counter() - t0

    callback = None
    if collect_iterates is not None:
        def callback(xk, _state):
            collect_iterates.append(np.array(xk))
            return False

    report = PhysOptReport()
    report.stages.append(StageReport(
        name="fit", objective=problem.objective_fun(x0),
        violations=problem.violation_by_group(x0),
        n_iters=0, status=0, success=True, wall_time=fit_time))
    x, st = _run_stage(problem, x0, "dynamics", max_iters, verbose, callback)
    report.stages.append(st)
    report.objective_terms = problem.objective_breakdown(x)
    return CentroidalTrajectory(layout, x), report, problem
