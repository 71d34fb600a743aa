"""Fixed-point microtimings of the costliest per-iteration calls.

Each figure times the program's own calls, with the tracer of spans.py:

- physopt constraint and objective: one evaluation of the reduced problem
  on the ground-truth (GT) targets of exact-suite hop_a, at distinct points
  near x0, so ReducedProblem's single-entry memo never hits.
- physopt iteration: solve_reduced on the GT targets of exact-suite
  stand_a, dynamics stage only, for PHYSICS_ITERS trust-constr iterations
  from x0; the stage's time per iteration, and its self time (the stage
  less the problem callbacks: scipy's own work) per iteration. stand_a is
  the exact clip on which scipy does not fall back to its dense SVD.
- kinfit: one Levenberg-Marquardt iteration of solve_stage from distinct
  points near the pose stage's x0 on plausibility-suite walk_00. Its
  Jacobian call, its sparse LU factorization (splu) per call, and the rest
  of its own work: the normal equations J^T J and J^T r, the damping and
  the triangular solves.

Medians over the points, in milliseconds.
"""
from __future__ import annotations

import warnings
from statistics import median

import numpy as np

from physmocap.core.kinematics import compute_com_inertia
from physmocap.core.preprocess import preprocess_low_confidence
from physmocap.core.skeleton import default_skeleton
from physmocap.kinfit import solve as kinfit_solve
from physmocap.kinfit.init import initialize_from_3d
from physmocap.kinfit.problem import KinematicProblem
from physmocap.physopt import solve as physopt_solve
from physmocap.physopt.problem import ReducedProblem, targets_from_kinematic
from physmocap.physopt.trajectory import TrajectoryLayout
from physmocap.synth import dataset
from physmocap.synth.generate import generate
from spans import Tracer, traced

REPEATS = 5
STEP = 1e-9
PHYSICS_ITERS = 5


def _near(x0, rng, mask=1.0):
    return [x0 + STEP * mask * rng.standard_normal(x0.size)
            for _ in range(REPEATS)]


def _exact(name, seed):
    script = next(s for s in dataset.exact_suite() if s.name == name)
    clip = generate(script, seed=seed)
    targets = targets_from_kinematic(clip.motion, compute_com_inertia(clip.motion),
                                     clip.floor)
    return clip, targets


def _traced_ms(groups, fn, inputs):
    """Per input: {group: (calls, inclusive ms, self ms)} of fn(input)."""
    out = []
    for x in inputs:
        tracer = Tracer()
        with traced(tracer, groups):
            fn(x)
        out.append({g: (st[0], 1000.0 * st[1], 1000.0 * st[2])
                    for g, st in tracer.stats.items()})
    return out


def physopt_microtimings(seed):
    clip, targets = _exact("hop_a", seed)
    layout = TrajectoryLayout(clip.contacts)
    problem = ReducedProblem(layout, targets)
    x0 = physopt_solve.initial_guess(problem)   # also builds the knot Hessian
    rng = np.random.default_rng(seed)
    knots_only = np.ones(x0.size)
    knots_only[layout.dur_base:] = 0.0   # same durations: no Hessian rebuild
    evals = _traced_ms({"physopt.constraint"},
                       lambda x: problem.constraint_fun(x), _near(x0, rng))
    evals += _traced_ms({"physopt.objective"},
                        lambda x: problem.objective_fun(x),
                        _near(x0, rng, knots_only))

    clip, targets = _exact("stand_a", seed)
    tracer = Tracer()
    with warnings.catch_warnings(), traced(
            tracer, {"physopt.stage", "physopt.constraint", "physopt.objective"}):
        warnings.simplefilter("ignore")
        physopt_solve.solve_reduced(targets, clip.contacts,
                                    max_iters=PHYSICS_ITERS, duration_stage=False)
    [stage] = tracer.spans
    return {
        "physopt.constraint_ms_x0": median(e["physopt.constraint"][1]
                                           for e in evals[:REPEATS]),
        "physopt.objective_ms_x0": median(e["physopt.objective"][1]
                                          for e in evals[REPEATS:]),
        "physopt.iter_ms_x0": 1000.0 * stage["wall_s"] / stage["iters"],
        "physopt.solver_self_iter_ms_x0": (1000.0 * stage["self_s"]
                                           / stage["iters"]),
    }


def kinfit_microtimings(seed):
    script = next(s for s in dataset.plausibility_suite() if s.name == "walk_00")
    seq = preprocess_low_confidence(generate(script, seed=seed).pose)
    skeleton, root, angles = initialize_from_3d(seq, default_skeleton())
    problem = KinematicProblem(seq, skeleton)
    x0 = problem.pack(root, angles)
    steps = _traced_ms(
        {"kinfit.lm", "kinfit.jacobian", "kinfit.residual", "kinfit.splu"},
        lambda x: kinfit_solve.solve_stage(problem, x, max_iters=1),
        _near(x0, np.random.default_rng(seed)))
    return {
        "kinfit.jacobian_ms_x0": median(s["kinfit.jacobian"][1] for s in steps),
        "kinfit.normal_ms_x0": median(s["kinfit.lm"][2] for s in steps),
        "kinfit.splu_ms_x0": median(s["kinfit.splu"][1] / s["kinfit.splu"][0]
                                    for s in steps),
    }


def microtimings(seed):
    return {**physopt_microtimings(seed), **kinfit_microtimings(seed)}
