"""Staged solve of the reduced-body trajectory optimization.

Stage "fit" is a linear least-squares fill-in of the spline knots against
the kinematic targets (one sparse factorization; the tracking objective is
quadratic in the knots), plus a static force guess that distributes the net
contact wrench between the feet in contact. Stage "dynamics" runs the full
nonlinear program from there. The contact phase durations are those of the
labels throughout.

The dynamics stage moves z, with x = x_fixed + P z, the map that
ReducedProblem builds from its layout, targets and floor. z holds every
knot column but the COM boundary velocities, which hold the targets' own
(trust-constr's interior point does not keep its iterates on lb == ub
bounds), and the stance constants, which it holds as two floor-plane
coordinates each: stance feet are on the floor by construction.

scipy.optimize (in _run_stage) and scipy.sparse.linalg (splu, in initial_guess)
are imported by their only users, ahead of the stages' timers: slow imports
whose memory a run without a physics stage never needs (checked by
tests/test_cli.py test_kinematic_run_does_not_load_scipy_optimize).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

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
    wall_time: float
    stop: str = ""       # why the solver stopped, from its status; the fit stage has none

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
        return bool(self.stages and self.stages[-1].stop in ("gtol", "xtol")
                    and self.max_violation < VIOLATION_TOL)


def initial_guess(problem):
    """Linear least-squares knot fit plus a static contact-force guess."""
    from scipy.sparse.linalg import splu

    lay, tg = problem.layout, problem.tg
    up, floor_h = problem.up, problem.floor_h
    x = problem.x_fixed.copy()
    xyz = np.arange(3)

    # stance constants: phase-mean foot target projected onto the floor
    for i, ph in lay.stance:
        c = tg.feet[ph.first_frame:ph.first_frame + ph.n_frames, i].mean(axis=0)
        c -= (up @ c - floor_h) * up
        x[ph.const_col:ph.const_col + 3] = c

    # free flight knots and COM knots start at the interpolated targets,
    # at zero velocity except for the COM's held boundary velocities
    joint, pos, t = lay.flight_knots
    feet = tg.interp(tg.feet, np.minimum(t, tg.times[-1]))
    x[pos[:, None] + xyz] = feet[np.arange(len(t)), joint]
    k = np.arange(lay.n_com + 1)
    t = np.minimum(k * lay.com_delta, tg.times[-1])
    for which, track in ((0, tg.r), (1, tg.theta)):
        x[lay.com_knot_cols(which, k)[0][:, None] + xyz] = tg.interp(track, t)

    # one exact Newton step on the quadratic tracking objective over the free
    # columns, those z holds as they are; it reads no force column, so those
    # step by zero
    cols = problem.free
    sub = problem.hess[cols][:, cols].tocsc() + sparse.eye(len(cols), format="csc") * 1e-9
    x[cols] += splu(sub).solve(-problem.objective_grad(x)[cols])

    # static forces: distribute the net contact wrench of the fitted motion
    # between the feet in contact at each force knot (least-squares over
    # force and torque balance), each force clipped into the friction cone.
    # A phase's last knot sits at its end, which in_contact puts in the next
    # phase, so its flags are read half a frame earlier, in its last frame.
    knots = [(i, ph.force_col + 6 * k, ph.start + k * (ph.duration / ph.n_segs),
              k == ph.n_segs) for i, ph in lay.stance for k in range(ph.n_segs + 1)]
    joint, cols, times, last = (np.array(v) for v in zip(*knots))
    wrench = np.concatenate(problem.contact_wrench(x, times), axis=1)
    arm = (lay.sampler("feet", times).values(x)
           - lay.sampler("r", times).values(x)[:, None])
    flags = lay.in_contact(times - 0.5 * last / lay.fps)
    for i, b, w, a, on in zip(joint, cols, wrench, arm, flags):
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


def _run_stage(problem, x0, stage, max_iters, iterates=None):
    """One trust-constr stage, named stage, over the problem's z. The returned
    x, and the iterates appended to the list iterates, are full-length."""
    from scipy.optimize import NonlinearConstraint, minimize

    x_fixed, P = problem.x_fixed, problem.P
    PT = P.T.tocsr()

    def full(z):
        return x_fixed + P @ z

    callback = None if iterates is None else (
        lambda z, _state: iterates.append(full(z)))
    # the objective Hessian is constant, so it is projected once
    hess = PT @ problem.objective_hess(x0) @ P
    nlc = NonlinearConstraint(
        lambda z: problem.constraint_fun(full(z)), problem.c_lb, problem.c_ub,
        jac=lambda z: problem.constraint_jac(full(z)) @ P)
    t0 = time.perf_counter()
    res = minimize(lambda z: problem.objective_fun(full(z)), PT @ (x0 - x_fixed),
                   jac=lambda z: PT @ problem.objective_grad(full(z)),
                   hess=lambda z: hess, method="trust-constr",
                   constraints=[nlc], callback=callback,
                   options={"maxiter": max_iters, "gtol": 1e-6, "xtol": 1e-10})
    x = full(res.x)
    report = StageReport(
        name=stage, objective=float(res.fun),
        violations=problem.violation_by_group(x),
        n_iters=int(res.niter), status=int(res.status),
        wall_time=time.perf_counter() - t0,
        stop=("max_iters", "gtol", "xtol", "callback")[res.status])
    return x, report


def solve_reduced(targets, contacts, max_iters, duration_stage=None,
                  collect_iterates=None):
    """Run the staged trajectory optimization: fit, then dynamics.

    duration_stage has no effect. perfbench's microtimings still pass it;
    ROADMAP item 4's benchmark change drops that, and then this keyword.
    Returns (CentroidalTrajectory, report, problem). If collect_iterates
    is a list, the dynamics stage's iterates are appended to it.
    """
    layout = TrajectoryLayout(contacts)
    problem = ReducedProblem(layout, targets)
    import scipy.sparse.linalg  # noqa: F401 (initial_guess's, loaded before its timer)
    t0 = time.perf_counter()
    x0 = initial_guess(problem)
    fit_time = time.perf_counter() - t0

    report = PhysOptReport()
    report.stages.append(StageReport(
        name="fit", objective=problem.objective_fun(x0),
        violations=problem.violation_by_group(x0),
        n_iters=0, status=0, wall_time=fit_time))
    x, st = _run_stage(problem, x0, "dynamics", max_iters, collect_iterates)
    report.stages.append(st)
    report.objective_terms = problem.objective_breakdown(x)
    return CentroidalTrajectory(layout, x), report, problem
