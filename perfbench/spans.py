"""Layer spans for the traced benchmark run.

The tracer wraps public functions of each physmocap layer, and kinfit's
calls to scipy's splu, from outside the package: it swaps module attributes
and class methods for timing wrappers and restores them on exit. Each
wrapped call is a span in a group such as "kinfit.lm" or
"physopt.constraint". Per group it keeps the number of calls,
the inclusive time and the self time (inclusive time minus the time of the
traced spans it directly encloses). A call into a group that is already open
on the span stack is passed straight through, so nested writes inside one
io call count once. Spans of a group given a `keep` function are also
stored one by one, with the fields it takes from their arguments and result.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats = {}    # group -> [calls, inclusive_s, self_s]
        self.spans = []    # kept spans, in completion order
        self._stack = []   # open frames: [group, child_s]

    def wrap(self, group, fn, keep=None):
        """Timing wrapper for fn. keep(args, result) -> dict stores the span."""
        def traced(*args, **kwargs):
            if any(frame[0] == group for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            self._stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                wall = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += wall
                st = self.stats.setdefault(group, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += wall
                st[2] += wall - frame[1]
                if keep is not None:
                    self.spans.append({"group": group, "wall_s": wall,
                                       "self_s": wall - frame[1],
                                       **keep(args, result)})
        return traced

    def calls(self, group):
        return self.stats.get(group, (0, 0.0, 0.0))[0]

    def seconds(self, group):
        return self.stats.get(group, (0, 0.0, 0.0))[1]

    def self_seconds(self, group):
        return self.stats.get(group, (0, 0.0, 0.0))[2]

    def snapshot(self):
        return {g: list(v) for g, v in self.stats.items()}


def _lm_fields(args, result):
    fields = {"stage": "pose" if args[0].contacts is None else "contact"}
    if result is not None:
        fields["iters"] = result.n_iters
    return fields


def _stage_fields(args, result):
    fields = {"stage": args[2]}
    if result is not None:
        fields.update(iters=result[1].n_iters, status=result[1].status)
    return fields


def _targets():
    """(group, owner, attribute, keep) for every traced layer entry point."""
    from physmocap import cli, fullbody
    from physmocap.contact import sequence
    from physmocap.core import ik, kinematics
    from physmocap.core import io as core_io
    from physmocap.kinfit import floor, init
    from physmocap.kinfit import solve as kinfit_solve
    from physmocap.kinfit.problem import KinematicProblem
    from physmocap.physopt import solve as physopt_solve
    from physmocap.physopt.problem import ReducedProblem

    return [
        ("core.fk_jacobian", kinematics, "fk_jacobian", None),
        ("core.ik_frame", ik, "ik_solve_frame", None),
        ("kinfit", kinfit_solve, "run_kinematic_init", None),
        ("kinfit.init", init, "initialize_from_3d", None),
        ("kinfit.floor", floor, "fit_floor_from_motion", None),
        ("kinfit.lm", kinfit_solve, "solve_stage", _lm_fields),
        ("kinfit.jacobian", KinematicProblem, "jacobian", None),
        ("kinfit.residual", KinematicProblem, "residuals", None),
        ("kinfit.splu", kinfit_solve, "splu", None),
        ("physopt", physopt_solve, "solve_reduced", None),
        ("physopt.fit", physopt_solve, "initial_guess", None),
        ("physopt.stage", physopt_solve, "_run_stage", _stage_fields),
        ("physopt.constraint", ReducedProblem, "constraint_fun", None),
        ("physopt.constraint", ReducedProblem, "constraint_jac", None),
        ("physopt.objective", ReducedProblem, "objective_fun", None),
        ("physopt.objective", ReducedProblem, "objective_grad", None),
        ("physopt.objective", ReducedProblem, "objective_hess", None),
        ("fullbody", fullbody, "upgrade_fullbody", None),
        ("io", core_io, "save_motion", None),
        ("io", core_io, "save_floor", None),
        ("io", core_io, "write_json", None),
        ("io", sequence, "save_contacts", None),
        ("io", cli, "_grf_trace", None),
    ]


@contextmanager
def traced(tracer, groups=None):
    """Install the tracer's wrappers on the layer entry points, or on those
    of the named groups only.

    A physmocap function is replaced in every loaded physmocap module that
    holds it, since callers import it by name. A function from another
    package (scipy's splu) is replaced in its owner module only. Everything
    is restored on exit.
    """
    patched = []
    try:
        for group, owner, attr, keep in _targets():
            if groups is not None and group not in groups:
                continue
            fn = vars(owner)[attr]
            wrapper = tracer.wrap(group, fn, keep)
            if (isinstance(owner, type)
                    or not fn.__module__.startswith("physmocap")):
                homes = [owner]
            else:
                homes = [m for name, m in list(sys.modules.items())
                         if m is not None and name.split(".")[0] == "physmocap"
                         and vars(m).get(attr) is fn]
            for home in homes:
                patched.append((home, attr, fn))
                setattr(home, attr, wrapper)
        yield tracer
    finally:
        for home, attr, fn in reversed(patched):
            setattr(home, attr, fn)
