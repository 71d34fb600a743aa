"""Staged solve of the reduced-body trajectory optimization.

Stage "fit" is a linear least-squares fill-in of the spline knots against
the kinematic targets (one sparse factorization; the tracking objective is
quadratic in the knots at fixed durations), plus a static force guess that
distributes the net contact wrench between the feet in contact. Stage
"dynamics" runs the full nonlinear program with the contact durations
clamped; stage "durations" releases them inside bounds, keeping the result
only if it is at least as feasible and strictly better.

A clamped variable is held by leaving its column out of the stage's
decision vector, not by an ``lb == ub`` bound: trust-constr's interior
point does not keep its iterates on such bounds. The dynamics stage leaves
out the durations and the COM boundary velocity knots, the durations stage
the boundary velocity knots; both take those values from the stage's start
point, and report full-length vectors. The durations stage also leaves out
the last phase duration of each foot joint and derives it as the clip
length minus the others, so the phases span the clip at every iterate; a
linear inequality keeps it inside its bounds. Gradient, Hessian and
Jacobian reach the stage's vector through the same linear map.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, NonlinearConstraint, minimize
from scipy.sparse.linalg import splu

from ..core.rotation import skew
from .problem import FORCE_MAX, ReducedProblem
from .trajectory import CentroidalTrajectory, TrajectoryLayout

VIOLATION_TOL = 1e-6
MIN_PHASE_FRAMES = 2


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

    def summary(self):
        lines = []
        for st in self.stages:
            lines.append(f"{st.name:9s} obj={st.objective:10.4f} "
                         f"viol={st.max_violation:8.2e} iters={st.n_iters:4d} "
                         f"status={st.status} {st.wall_time:6.1f}s")
        terms = " ".join(f"{k}={v:.4f}" for k, v in self.objective_terms.items())
        lines.append(f"terms: {terms}")
        return "\n".join(lines)


def _phase_frame_ranges(phases):
    """[(first_frame, n_frames)] for each phase of one joint."""
    out = []
    at = 0
    for ph in phases:
        out.append((at, ph.n_frames))
        at += ph.n_frames
    return out


def initial_guess(problem):
    """Linear least-squares knot fit plus a static contact-force guess."""
    lay, tg = problem.layout, problem.tg
    up, floor_h = problem.up, problem.floor_h
    x = np.zeros(lay.n_vars)
    d0 = lay.durations0()
    x[lay.dur_base:] = d0

    # stance constants: phase-mean foot target projected onto the floor
    for i, phases in enumerate(lay.joint_phases):
        for (first, count), ph in zip(_phase_frame_ranges(phases), phases):
            if not ph.contact:
                continue
            c = tg.feet[first:first + count, i].mean(axis=0)
            c -= (up @ c - floor_h) * up
            x[ph.const_col:ph.const_col + 3] = c

    # flight knots: start from the interpolated foot targets
    for i, phases in enumerate(lay.joint_phases):
        start = 0.0
        for ph in phases:
            if not ph.contact:
                n = ph.n_segs
                delta = ph.duration0 / n
                for k in range(n + 1):
                    t = min(start + k * delta, tg.times[-1])
                    if ph.pos_cols[k] >= 0 and ph.vel_cols[k] >= 0:
                        pc, vc = ph.pos_cols[k], ph.vel_cols[k]
                        x[pc:pc + 3] = tg.interp(tg.feet, t)[i]
                        x[vc:vc + 3] = 0.0
            start += ph.duration0

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
    free[lay.dur_base:] = False
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
    knots = [(i, ph.force_col + 6 * k, start + k * (ph.duration0 / ph.n_segs))
             for i, phases in enumerate(lay.joint_phases)
             for ph, start in zip(phases, np.cumsum([0.0] + [p.duration0 for p in phases]))
             if ph.contact for k in range(ph.n_segs + 1)]
    joint, cols, times = (np.array(v) for v in zip(*knots))
    d = x[lay.dur_base:]
    wrench = np.concatenate(problem.contact_wrench(x, times), axis=1)
    arm = (lay.sampler(d, "feet", times).values(x)
           - lay.sampler(d, "r", times).values(x)[:, None])
    contact = np.stack([np.array([ph.contact for ph in phases])[lay.phase_of(d, i, times)[0]]
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


def _stage_map(layout, x0, stage):
    """The stage's decision vector z as x = x_fixed + P @ z.

    z holds the columns the stage moves (free, in order). In the durations
    stage the last phase duration of each foot joint is not one of them:
    with two or more phases it is the clip length minus the joint's other
    durations, so every iterate spans the clip exactly; a single phase keeps
    its duration. Returns (P, x_fixed, free, derived), derived holding the
    columns of the derived durations.
    """
    n = layout.n_vars
    moved = np.ones(n, dtype=bool)
    moved[_boundary_velocity_cols(layout)] = False
    if stage == "dynamics":
        moved[layout.dur_base:] = False
    else:
        moved[[cols[-1] for cols in layout.dur_cols]] = False
    free = np.flatnonzero(moved)
    joints = [cols for cols in layout.dur_cols
              if stage == "durations" and len(cols) > 1]
    # identity on the free columns; -1 from each derived duration to the
    # joint's other durations
    rows = np.concatenate([free] + [np.full(len(c) - 1, c[-1]) for c in joints])
    cols = np.concatenate([np.arange(len(free))]
                          + [np.searchsorted(free, c[:-1]) for c in joints])
    vals = np.concatenate([np.ones(len(free))] + [-np.ones(len(c) - 1) for c in joints])
    P = sparse.csr_matrix((vals, (rows, cols)), shape=(n, len(free)))
    derived = np.array([c[-1] for c in joints], dtype=int)
    x_fixed = np.where(moved, 0.0, x0)
    x_fixed[derived] = layout.total
    return P, x_fixed, free, derived


def _run_stage(problem, x0, stage, max_iters, verbose, callback=None):
    """One trust-constr stage over the columns that the stage moves.

    The other columns keep their values in x0, except the derived last
    durations of the durations stage (see _stage_map). The returned x, and
    the iterates passed to callback, are full-length vectors.
    """
    lay = problem.layout
    x0 = np.asarray(x0, dtype=float)
    P, x_fixed, free, derived = _stage_map(lay, x0, stage)
    PT = P.T.tocsr()

    def full(z):
        return x_fixed + P @ z

    # the knot Hessian is rebuilt only when the durations change, so each
    # build is projected once
    hess_memo = [None, None]

    def hess(z):
        H = problem.objective_hess(full(z))
        if hess_memo[0] is not H:
            hess_memo[:] = H, (PT @ H @ P).tocsr()
        return hess_memo[1]

    nlc = NonlinearConstraint(
        lambda z: problem.constraint_fun(full(z)), problem.c_lb, problem.c_ub,
        jac=lambda z: problem.constraint_jac(full(z)) @ P)
    constraints = [nlc]
    bounds = None
    if stage == "durations":
        d0 = lay.durations0()
        lo = np.maximum(0.5 * d0, MIN_PHASE_FRAMES / lay.fps)
        hi = 2.0 * d0
        lb = np.full(len(free), -np.inf)
        ub = np.full(len(free), np.inf)
        dur = free >= lay.dur_base
        lb[dur] = lo[free[dur] - lay.dur_base]
        ub[dur] = hi[free[dur] - lay.dur_base]
        bounds = Bounds(lb, ub)
        if len(derived):
            # each derived duration, total + P[derived] @ z, stays inside
            # its own bounds
            c = derived - lay.dur_base
            constraints.append(LinearConstraint(
                P[derived], lo[c] - lay.total, hi[c] - lay.total))
    stage_callback = None
    if callback is not None:
        def stage_callback(z, state):
            return callback(full(z), state)
    t0 = time.perf_counter()
    res = minimize(lambda z: problem.objective_fun(full(z)), x0[free],
                   jac=lambda z: PT @ problem.objective_grad(full(z)),
                   hess=hess, method="trust-constr",
                   constraints=constraints, bounds=bounds,
                   callback=stage_callback,
                   options={"maxiter": max_iters, "gtol": 1e-6, "xtol": 1e-10,
                            "verbose": verbose})
    x = full(res.x)
    violations = problem.violation_by_group(x)
    if stage == "durations":
        violations["duration_sum"] = float(max(
            abs(x[cols].sum() - lay.total) for cols in lay.dur_cols))
    report = StageReport(
        name=stage, objective=float(res.fun), violations=violations,
        n_iters=int(res.niter), status=int(res.status),
        success=bool(res.status in (1, 2)), wall_time=time.perf_counter() - t0)
    return x, report


def solve_reduced(targets, contacts, weights=None, max_iters=3000,
                  duration_stage=True, verbose=0, collect_iterates=None,
                  layout=None):
    """Run the staged trajectory optimization.

    Returns (CentroidalTrajectory, report, problem). If collect_iterates
    is a list, solver iterates are appended to it as (x, stage-name) pairs.
    """
    if layout is None:
        layout = TrajectoryLayout(contacts)
    problem = ReducedProblem(layout, targets, weights)
    t0 = time.perf_counter()
    x0 = initial_guess(problem)
    fit_time = time.perf_counter() - t0

    callback = None
    if collect_iterates is not None:
        stage_name = ["fit"]

        def callback(xk, _state):
            collect_iterates.append((np.array(xk), stage_name[0]))
            return False

    report = PhysOptReport()
    report.stages.append(StageReport(
        name="fit", objective=problem.objective_fun(x0),
        violations=problem.violation_by_group(x0),
        n_iters=0, status=0, success=True, wall_time=fit_time))

    if collect_iterates is not None:
        stage_name[0] = "dynamics"
    x, st = _run_stage(problem, x0, "dynamics", max_iters, verbose, callback)
    report.stages.append(st)

    if duration_stage:
        if collect_iterates is not None:
            stage_name[0] = "durations"
        x3, st3 = _run_stage(problem, x, "durations", max_iters, verbose, callback)
        v2, v3 = st.max_violation, st3.max_violation
        accept = (v3 <= VIOLATION_TOL < v2
                  or (v3 <= max(VIOLATION_TOL, v2) and st3.objective < st.objective))
        if accept:
            x = x3
            report.stages.append(st3)

    report.objective_terms = problem.objective_breakdown(x)
    return CentroidalTrajectory(layout, x), report, problem
