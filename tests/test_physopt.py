"""Tests for the reduced-body trajectory optimization stack."""
import numpy as np
import pytest

from physmocap.core.kinematics import compute_com_inertia
from physmocap.physopt.problem import (ReducedProblem, targets_from_kinematic)
from physmocap.physopt.solve import initial_guess, solve_reduced
from physmocap.physopt.spline import (hermite_eval, hermite_weights, locate,
                                      segment_count)
from physmocap.physopt.trajectory import TrajectoryLayout
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript


def test_hermite_weights_match_eval():
    rng = np.random.default_rng(0)
    for order in range(4):
        x0, v0, x1, v1 = rng.normal(size=(4, 3))
        delta, u = 0.37, 0.21
        w = hermite_weights(u, delta, order)
        ref = hermite_eval(x0, v0, x1, v1, delta, u, order)
        got = w[0] * x0 + w[1] * v0 + w[2] * x1 + w[3] * v1
        assert np.abs(ref - got).max() < 1e-12


def test_hermite_interpolates_knots():
    rng = np.random.default_rng(1)
    x0, v0, x1, v1 = rng.normal(size=(4, 3))
    delta = 0.52
    assert np.allclose(hermite_eval(x0, v0, x1, v1, delta, 0.0), x0)
    assert np.allclose(hermite_eval(x0, v0, x1, v1, delta, delta), x1)
    assert np.allclose(hermite_eval(x0, v0, x1, v1, delta, 0.0, 1), v0)
    assert np.allclose(hermite_eval(x0, v0, x1, v1, delta, delta, 1), v1)


def test_segment_count():
    assert segment_count(0.3) == 6
    assert segment_count(2.0) == 6
    assert segment_count(2.01) == 12
    assert segment_count(5.0) == 18


def test_locate_boundaries():
    k, u = locate(0.0, 0.1, 5)
    assert (k, u) == (0, 0.0)
    k, u = locate(0.1, 0.1, 5)
    assert k == 1 and abs(u) < 1e-12
    k, u = locate(0.5, 0.1, 5)
    assert k == 4 and abs(u - 0.1) < 1e-12


@pytest.fixture(scope="module")
def hop_clip():
    script = MotionScript(
        name="hop", kind="hop", duration=2.0, mass_override="upper_body",
        params=dict(flight_time=0.3, push_time=0.5, land_time=0.5, tuck=0.25))
    return generate(script, seed=3)


@pytest.fixture(scope="module")
def hop_setup(hop_clip):
    states = compute_com_inertia(hop_clip.motion)
    targets = targets_from_kinematic(hop_clip.motion, states, hop_clip.floor)
    layout = TrajectoryLayout(hop_clip.contacts)
    return layout, targets, hop_clip


def _random_x(layout, rng):
    return rng.normal(scale=0.3, size=layout.n_vars)


def test_layout_var_count(hop_setup):
    """Every column is a knot of exactly one track, and each foot joint's
    phases span the clip."""
    layout, _, _ = hop_setup
    starts = [layout.com_knot_cols(which, k)[a] for which in (0, 1)
              for k in range(layout.n_com + 1) for a in (0, 1)]
    for phases in layout.joint_phases:
        start = 0.0
        for ph in phases:
            assert ph.start0 == start
            start += ph.duration0
            if ph.contact:
                starts += [ph.const_col]
                starts += list(ph.force_col + 3 * np.arange(2 * (ph.n_segs + 1)))
            else:   # tied boundary knots read a stance constant
                free = ph.vel_cols >= 0
                starts += [*ph.pos_cols[free], *ph.vel_cols[free]]
        assert abs(start - layout.total) < 1e-12
    cols = np.concatenate([c + np.arange(3) for c in starts])
    assert np.array_equal(np.sort(cols), np.arange(layout.n_vars))


def _sample(layout, x, track, t, order=0):
    """Samples of one track at one time, as (value, Jacobian)."""
    smp = layout.sampler(track, [t], order)
    return smp.values(x)[0], smp.S


def test_stance_track_is_constant(hop_setup):
    layout, _, _ = hop_setup
    rng = np.random.default_rng(3)
    x = _random_x(layout, rng)
    ph = layout.joint_phases[0][0]
    assert ph.contact
    c = x[ph.const_col:ph.const_col + 3]
    for t in (0.0, 0.25 * ph.duration0, 0.9 * ph.duration0):
        v = _sample(layout, x, "feet", t)[0][0]
        assert np.allclose(v, c)
        vel = _sample(layout, x, "feet", t, 1)[0][0]
        assert np.allclose(vel, 0.0)


def test_flight_track_ties_to_stance(hop_setup):
    """Flight boundary knots read the neighbouring stance constants."""
    layout, _, _ = hop_setup
    rng = np.random.default_rng(4)
    x = _random_x(layout, rng)
    phases = layout.joint_phases[0]
    j = next(j for j, p in enumerate(phases)
             if not p.contact and 0 < j < len(phases) - 1)
    t0 = sum(p.duration0 for p in phases[:j])
    before = _sample(layout, x, "feet", t0 - 1e-9)[0][0]
    after = _sample(layout, x, "feet", t0)[0][0]
    assert np.abs(before - after).max() < 1e-6
    t1 = t0 + phases[j].duration0
    before = _sample(layout, x, "feet", t1 - 1e-9)[0][0]
    after = _sample(layout, x, "feet", t1)[0][0]
    assert np.abs(before - after).max() < 1e-6


def test_flight_force_is_zero(hop_setup):
    layout, _, _ = hop_setup
    rng = np.random.default_rng(5)
    x = _random_x(layout, rng)
    phases = layout.joint_phases[2]
    j = next(j for j, p in enumerate(phases) if not p.contact)
    t = sum(p.duration0 for p in phases[:j]) + 0.5 * phases[j].duration0
    f, jac = _sample(layout, x, "forces", t)
    assert np.all(f[2] == 0.0) and jac[6:9].nnz == 0


def _directional_fd(fun, x, d, eps=1e-6):
    return (fun(x + eps * d) - fun(x - eps * d)) / (2 * eps)


def test_track_eval_gradients_match_fd(hop_setup):
    """Sample Jacobians against FD."""
    layout, _, _ = hop_setup
    rng = np.random.default_rng(6)
    x = _random_x(layout, rng)
    times = [0.137, 0.513, 0.977, 1.391, 1.843]

    def check(evalfn):
        for t in times:
            for order in (0, 1, 2):
                _, jac = evalfn(x, t, order)
                d = rng.normal(size=layout.n_vars)
                d /= np.linalg.norm(d)
                an = jac @ d
                fd = _directional_fd(lambda xx: evalfn(xx, t, order)[0], x, d)
                assert np.abs(fd - an).max() < 1e-5, (t, order)

    check(lambda xx, t, o: _sample(layout, xx, "r", t, o))
    check(lambda xx, t, o: _sample(layout, xx, "theta", t, o))
    for i in range(4):
        for track in ("feet", "forces"):
            def joint_i(xx, t, o, i=i, track=track):
                v, jac = _sample(layout, xx, track, t, o)
                return v[i], jac[3 * i:3 * i + 3]
            check(joint_i)


def test_problem_gradients_match_fd(hop_setup):
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    rng = np.random.default_rng(7)
    x = _random_x(layout, rng)
    _, grad, _ = problem.objective(x)
    _, jac = problem.constraints(x)
    for _ in range(6):
        d = rng.normal(size=layout.n_vars)
        d /= np.linalg.norm(d)
        fd = _directional_fd(problem.objective_fun, x, d)
        assert abs(fd - grad @ d) / max(1.0, abs(fd)) < 1e-5
        fd = _directional_fd(problem.constraint_fun, x, d)
        err = np.abs(fd - jac @ d).max() / max(1.0, np.abs(fd).max())
        assert err < 1e-5


def test_objective_hessian_is_exact_at_fixed_durations(hop_setup):
    """With the phase durations fixed the objective is quadratic in x, so
    objective_hess is exact in every direction; the dynamics stage relies
    on it."""
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    rng = np.random.default_rng(9)
    x = _random_x(layout, rng)
    hess = problem.objective_hess(x)
    for _ in range(6):
        d = rng.normal(size=layout.n_vars)
        d /= np.linalg.norm(d)
        fd = _directional_fd(problem.objective_grad, x, d)
        assert np.abs(fd - hess @ d).max() / max(1.0, np.abs(fd).max()) < 1e-6


def test_gradients_match_fd_at_solver_iterates(hop_setup):
    """First derivatives stay exact along the path of a real solve."""
    layout, targets, clip = hop_setup
    iterates = []
    solve_reduced(targets, clip.contacts, max_iters=30, collect_iterates=iterates)
    assert len(iterates) >= 20
    rng = np.random.default_rng(8)
    problem = ReducedProblem(layout, targets)
    step = max(1, len(iterates) // 20)
    checked = 0
    for x in iterates[::step]:
        _, grad, _ = problem.objective(x)
        _, jac = problem.constraints(x)
        d = rng.normal(size=layout.n_vars)
        d /= np.linalg.norm(d)
        fd = _directional_fd(problem.objective_fun, x, d)
        assert abs(fd - grad @ d) / max(1.0, abs(fd)) < 1e-5
        fd = _directional_fd(problem.constraint_fun, x, d)
        err = np.abs(fd - jac @ d).max() / max(1.0, np.abs(fd).max())
        assert err < 1e-5
        checked += 1
    assert checked >= 20


def test_initial_guess_tracks_targets(hop_setup):
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    x0 = initial_guess(problem)
    times = targets.times
    out = layout.sample(x0, times)
    # the velocity damping shaves a few centimetres off the flight arc,
    # so the fit is close to, not on top of, the targets
    assert np.abs(out["r"] - targets.r).max() < 0.15
    assert np.abs(out["theta"] - targets.theta).max() < 0.08
    viol = problem.violation_by_group(x0)
    assert viol["force_cone"] < 1e-9
    assert viol["stance_on_floor"] < 1e-9
    assert viol["above_floor"] < 1e-9


def test_short_solve_reduces_violation(hop_setup):
    """A capped dynamics stage should still push feasibility well down."""
    layout, targets, clip = hop_setup
    x0_prob = ReducedProblem(layout, targets)
    v0 = max(x0_prob.violation_by_group(initial_guess(x0_prob)).values())
    traj, report, _ = solve_reduced(targets, clip.contacts, max_iters=250)
    v = report.stages[-1].max_violation
    assert v < 1e-3 and v < 1e-3 * v0
    out = traj.sample(targets.times)
    flight = ~clip.contacts.labels
    assert np.abs(out["forces"][flight]).max() == 0.0


def test_stages_hold_their_fixed_columns(hop_setup):
    """The dynamics stage holds the COM boundary velocity knots bit-for-bit
    at every solver iterate, and fit and dynamics are the only stages."""
    layout, targets, clip = hop_setup
    iterates = []
    _, report, _ = solve_reduced(targets, clip.contacts, max_iters=3,
                                 collect_iterates=iterates)
    assert [st.name for st in report.stages] == ["fit", "dynamics"]
    assert iterates
    vel_cols = [layout.com_knot_cols(which, k)[1]
                for which in (0, 1) for k in (0, layout.n_com)]
    bound_vel = np.concatenate([targets.r_bound_vel, targets.theta_bound_vel])
    for xk in iterates:
        for vc, v in zip(vel_cols, bound_vel):
            assert np.array_equal(xk[vc:vc + 3], v)
