"""Tests for the reduced-body trajectory optimization stack."""
import dataclasses

import numpy as np
import pytest

from physmocap.cli import _grf_trace
from physmocap.contact.heuristic import velocity_baseline_3d
from physmocap.core.kinematics import GRAVITY, compute_com_inertia
from physmocap.core.rotation import euler_to_matrix
from physmocap.metrics import implied_grf
from physmocap.physopt.problem import (FRICTION_RATIO, OBJECTIVE_TERMS,
                                       ReducedProblem, _boundary_velocities,
                                       targets_from_kinematic)
from physmocap.physopt.solve import initial_guess, solve_reduced
from physmocap.physopt.spline import (hermite_eval, hermite_weights, locate,
                                      segment_count)
from physmocap.physopt.trajectory import TrajectoryLayout
from physmocap.synth import dataset
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
        name="hop", kind="hop", duration=2.0,
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
    phases tile the clip's frames."""
    layout, _, clip = hop_setup
    starts = [layout.com_knot_cols(which, k)[a] for which in (0, 1)
              for k in range(layout.n_com + 1) for a in (0, 1)]
    for phases in layout.joint_phases:
        first = 0
        for ph in phases:
            assert ph.first_frame == first and ph.n_frames > 0
            assert ph.start == first / layout.fps
            assert ph.duration == ph.n_frames / layout.fps
            first += ph.n_frames
            if ph.contact:
                starts += [ph.const_col]
                starts += list(ph.force_col + 3 * np.arange(2 * (ph.n_segs + 1)))
            else:   # tied boundary knots read a stance constant
                free = ph.vel_cols >= 0
                starts += [*ph.pos_cols[free], *ph.vel_cols[free]]
        assert first == clip.contacts.n_frames
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
    for t in (0.0, 0.25 * ph.duration, 0.9 * ph.duration):
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
    t0 = sum(p.duration for p in phases[:j])
    before = _sample(layout, x, "feet", t0 - 1e-9)[0][0]
    after = _sample(layout, x, "feet", t0)[0][0]
    assert np.abs(before - after).max() < 1e-6
    t1 = t0 + phases[j].duration
    before = _sample(layout, x, "feet", t1 - 1e-9)[0][0]
    after = _sample(layout, x, "feet", t1)[0][0]
    assert np.abs(before - after).max() < 1e-6


def test_flight_force_is_zero(hop_setup):
    layout, _, _ = hop_setup
    rng = np.random.default_rng(5)
    x = _random_x(layout, rng)
    phases = layout.joint_phases[2]
    j = next(j for j, p in enumerate(phases) if not p.contact)
    t = sum(p.duration for p in phases[:j]) + 0.5 * phases[j].duration
    f, jac = _sample(layout, x, "forces", t)
    assert np.all(f[2] == 0.0) and jac[6:9].nnz == 0


@pytest.mark.parametrize("name", ["jump_b", "jump_d", "walk_00"])
def test_phases_follow_the_labels(name):
    """At every frame time each foot joint is in the phase of its label, and
    exactly the labelled-contact rows read a force spline. Exact jump_b and
    jump_d land on frames (40 and 43) whose time a sum of float phase
    durations overshoots; walk_00 runs on its 3D velocity-baseline labels."""
    script = next(s for s in dataset.exact_suite() + dataset.plausibility_suite()
                  if s.name == name)
    clip = generate(script, seed=0)
    contacts = velocity_baseline_3d(clip.pose) if name == "walk_00" else clip.contacts
    layout = TrajectoryLayout(contacts)
    times = np.arange(contacts.n_frames) / contacts.fps
    assert np.array_equal(layout.in_contact(times), contacts.labels)
    reads = layout.sampler("forces", times).S.getnnz(axis=1).reshape(-1, 4, 3)
    assert np.array_equal(reads.any(axis=2), contacts.labels)


def test_force_knot_sampler_reads_stance_force_splines(hop_setup):
    """Per stance phase, the knot rows select its force knots, and the
    midpoint rows sample its force spline at the segment midpoints. The
    phase-end knot is not compared with sampler, which puts its time in the
    following phase."""
    layout, _, _ = hop_setup
    S = layout.force_knot_sampler().S.toarray()
    at = 0
    for i, ph in layout.stance:
        n = ph.n_segs
        knot_cols = ph.force_col + 6 * np.arange(n + 1)[:, None] + np.arange(3)
        assert np.array_equal(S[3 * at:3 * (at + n + 1)],
                              np.eye(layout.n_vars)[knot_cols.ravel()])
        mids = ph.start + (np.arange(n) + 0.5) * (ph.duration / n)
        ref = layout.sampler("forces", mids).S.toarray().reshape(n, 4, 3, -1)[:, i]
        got = S[3 * (at + n + 1):3 * (at + 2 * n + 1)].reshape(n, 3, -1)
        assert np.array_equal(got != 0, ref != 0)
        assert np.abs(got - ref).max() < 1e-12
        at += 2 * n + 1
    assert 3 * at == S.shape[0] and at > 0


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
    grad = problem.objective_grad(x)
    _, jac = problem.constraints(x)
    for _ in range(6):
        d = rng.normal(size=layout.n_vars)
        d /= np.linalg.norm(d)
        fd = _directional_fd(problem.objective_fun, x, d)
        assert abs(fd - grad @ d) / max(1.0, abs(fd)) < 1e-5
        fd = _directional_fd(problem.constraint_fun, x, d)
        err = np.abs(fd - jac @ d).max() / max(1.0, np.abs(fd).max())
        assert err < 1e-5


FOOT_PAIRS = ((0, 1), (2, 3))


def _stance_pair_lengths(lay, x, l_foot):
    """Foot-length rows of the stance phases of a toe and its heel that
    share a frame or meet at a phase bound; l_foot holds one length a side."""
    return np.array([((x[a.const_col:a.const_col + 3] - x[b.const_col:b.const_col + 3]) ** 2
                      ).sum() - l_foot[side] ** 2
                     for side, (toe, heel) in enumerate(FOOT_PAIRS)
                     for i, a in lay.stance if i == toe for k, b in lay.stance if k == heel
                     if a.first_frame <= b.first_frame + b.n_frames
                     and b.first_frame <= a.first_frame + a.n_frames])


def _reference_constraints(problem, x):
    """Every constraint group, unscaled, evaluated from layout.sampler values
    by the model's equations rather than by the problem's matrices."""
    lay, tg = problem.layout, problem.tg
    up, tans = tg.floor.normal, tg.floor.tangents
    floor_h = up @ tg.floor.point
    td, tk = problem.dyn_times, problem.kin_times
    r, f, p = (lay.sampler(track, td).values(x) for track in ("r", "forces", "feet"))
    acc = lay.sampler("r", td, 2).values(x)
    h = problem.contact_wrench(x, td)[1]
    out = {"dynamics_linear": tg.mass * (acc + GRAVITY * up) - f.sum(axis=1),
           "dynamics_angular": h - np.cross(f, r[:, None] - p).sum(axis=1)}
    rk, thk, pk = (lay.sampler(track, tk).values(x) for track in ("r", "theta", "feet"))
    hips = rk[:, None] + np.einsum("nab,nib->nia", euler_to_matrix(thk),
                                   tg.interp(tg.hip_offsets, tk))
    out["leg_reach"] = ((pk - hips) ** 2).sum(axis=-1) - tg.l_leg ** 2
    # foot length: stance pairs, then the 0.08 s samples where toe and heel
    # are not both in contact
    rows = [_stance_pair_lengths(lay, x, tg.l_foot)]
    contact = lay.in_contact(tk)
    for side, (toe, heel) in enumerate(FOOT_PAIRS):
        at = ~(contact[:, toe] & contact[:, heel])
        rows.append(((pk[at, toe] - pk[at, heel]) ** 2).sum(axis=1) - tg.l_foot[side] ** 2)
    out["foot_length"] = np.concatenate(rows)
    out["above_floor"] = (p @ up - floor_h)[~lay.in_contact(td)]
    fk = lay.force_knot_sampler().values(x)
    mu_up = FRICTION_RATIO * up
    out["force_cone"] = np.stack([fk @ up, fk @ (mu_up - tans[0]), fk @ (mu_up + tans[0]),
                                  fk @ (mu_up - tans[1]), fk @ (mu_up + tans[1])], axis=1)
    return out


def _unscaled_constraints(problem, x):
    """constraint_fun(x) with each group's nondimensionalising scale undone."""
    c = problem.constraint_fun(x).copy()
    for name, s in problem.scale.items():
        c[problem.groups[name]] /= s
    return c

def test_constraints_match_an_independent_reference(hop_setup):
    """constraint_fun equals the model's equations evaluated directly from
    the layout's samples, group by group and row by row, at random x."""
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    rng = np.random.default_rng(10)
    for _ in range(3):
        x = _random_x(layout, rng)
        c = _unscaled_constraints(problem, x)
        ref = _reference_constraints(problem, x)
        assert list(ref) == list(problem.groups)
        for name, sl in problem.groups.items():
            want = ref[name].ravel()
            assert want.shape == c[sl].shape, name
            assert np.abs(c[sl] - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), name


def _gt_problem(clip):
    targets = targets_from_kinematic(clip.motion, compute_com_inertia(clip.motion),
                                     clip.floor)
    return ReducedProblem(TrajectoryLayout(clip.contacts), targets)


@pytest.fixture(scope="module")
def rank_clips():
    """The exact suite and plausibility walk_00 at seed 0, GT targets and labels."""
    walk = next(s for s in dataset.plausibility_suite() if s.name == "walk_00")
    return dataset.generate_suite(dataset.exact_suite(), seed=0) + [generate(walk, seed=0)]


def test_equality_and_floor_rows_have_full_rank(rank_clips):
    """At the initial guess, the equality rows and the above_floor rows have
    full row rank in the dynamics stage's variables (problem.P): no row
    repeats another, so the NLP meets LICQ there. walk_00 has dynamics
    samples within rounding of a flight phase's start, which read the tied
    stance constant alone."""
    names = ("dynamics_linear", "dynamics_angular", "foot_length", "above_floor")
    for clip in rank_clips:
        problem = _gt_problem(clip)
        x0 = initial_guess(problem)
        rows = np.concatenate([np.arange(problem.n_rows)[problem.groups[g]] for g in names])
        J = (problem.constraint_jac(x0)[rows] @ problem.P).toarray()
        assert np.linalg.matrix_rank(J) == len(rows), clip.name


@pytest.mark.parametrize("name", ["hop_a", "walk_00"])
def test_dropped_sample_rows_are_implied(name, rank_clips):
    """Every dynamics-grid foot sample is an above_floor row or, with every
    stance constant on the floor, reads the floor height; every 0.08 s
    toe-heel sample is a foot_length row or equals a stance pair's row."""
    problem = _gt_problem(next(c for c in rank_clips if c.name.startswith(name)))
    lay, tg = problem.layout, problem.tg
    up = tg.floor.normal
    x = _random_x(lay, np.random.default_rng(13))
    for _, ph in lay.stance:
        c = x[ph.const_col:ph.const_col + 3]
        c -= (up @ c - problem.floor_h) * up
    vals = _unscaled_constraints(problem, x)

    heights = (lay.sampler("feet", problem.dyn_times).values(x) @ up - problem.floor_h).ravel()
    dropped = np.abs(heights) <= 1e-12
    assert dropped.any()
    assert np.allclose(vals[problem.groups["above_floor"]], heights[~dropped],
                       rtol=0, atol=1e-12)

    pairs = _stance_pair_lengths(lay, x, tg.l_foot)
    feet = lay.sampler("feet", problem.kin_times).values(x)
    lengths = np.concatenate([((feet[:, toe] - feet[:, heel]) ** 2).sum(axis=1) - l ** 2
                              for (toe, heel), l in zip(FOOT_PAIRS, tg.l_foot)])
    dropped = np.isclose(lengths[:, None], pairs, rtol=0, atol=1e-12).any(axis=1)
    assert dropped.any()
    assert np.allclose(vals[problem.groups["foot_length"]],
                       np.concatenate([pairs, lengths[~dropped]]), rtol=0, atol=1e-12)


def test_force_with_negative_normal_violates_a_face(hop_setup):
    """The cone's normal row bounds f.n from above only: f.n >= 0 is the sum
    of two faces, (mu n - t).f + (mu n + t).f = 2 mu f.n, so a force pushing
    into the floor still violates a face at every cone sample."""
    problem = ReducedProblem(*hop_setup[:2])
    lay, floor = problem.layout, problem.tg.floor
    sl = problem.groups["force_cone"]
    assert np.all(problem.c_lb[sl][::5] == -np.inf)
    rng = np.random.default_rng(14)
    for _ in range(4):
        t = rng.normal(size=2) * rng.uniform(0.0, 200.0)
        f = -rng.uniform(1.0, 200.0) * floor.normal + t @ floor.tangents
        x = np.zeros(lay.n_vars)
        for _, ph in lay.stance:
            for k in range(ph.n_segs + 1):
                x[ph.force_col + 6 * k:ph.force_col + 6 * k + 3] = f
        rows = (problem.constraint_fun(x)[sl]).reshape(-1, 5)
        assert (rows[:, 1:] < problem.c_lb[sl].reshape(-1, 5)[:, 1:]).any(axis=1).all()
        assert problem.violation_by_group(x)["force_cone"] > 0.0


def test_each_foot_joint_reaches_only_its_own_chain(hop_clip):
    """With the right shank 5 cm short, leg_reach bounds each foot joint by
    the bones from its own hip down to it, and foot_length each side by its
    own rest toe-heel distance: the left toe chain bounds no other joint."""
    skel = hop_clip.motion.skeleton
    lengths = skel.bone_lengths.copy()
    lengths[skel.joint_id("right_ankle")] -= 0.05
    short = dataclasses.replace(skel, bone_lengths=lengths)
    motion = dataclasses.replace(hop_clip.motion, skeleton=short)
    targets = targets_from_kinematic(motion, compute_com_inertia(motion), hop_clip.floor)
    chains = [sum(lengths[skel.joint_id(f"{side}_{bone}")] for bone in ("knee", "ankle", end))
              for side in ("left", "right") for end in ("toe", "heel")]
    rest = short.rest_positions()
    feet = [rest[skel.joint_id(f"{side}_{end}")] for side in ("left", "right")
            for end in ("toe", "heel")]
    assert np.array_equal(targets.l_leg, chains) and chains[2] < chains[0] - 0.049
    assert np.allclose(targets.l_foot, [np.linalg.norm(feet[0] - feet[1]),
                                        np.linalg.norm(feet[2] - feet[3])], rtol=0, atol=1e-15)

    problem = ReducedProblem(TrajectoryLayout(hop_clip.contacts), targets)
    x = _random_x(problem.layout, np.random.default_rng(15))
    got = problem.constraint_fun(x)[problem.groups["leg_reach"]].reshape(-1, 4)
    hips = problem.layout.sample(x, problem.kin_times)
    hips = hips["r"][:, None] + np.einsum("nab,nib->nia", euler_to_matrix(hips["theta"]),
                                          problem.kin_hip_offsets)
    feet = problem.layout.sampler("feet", problem.kin_times).values(x)
    want = ((feet - hips) ** 2).sum(axis=-1) - np.square(chains)
    assert np.abs(got - want).max() < 1e-12


def test_linear_groups_are_affine(hop_setup):
    """The three linear groups have one constant Jacobian, which maps a step
    to the change of their values."""
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    rng = np.random.default_rng(11)
    x, y, d = (_random_x(layout, rng) for _ in range(3))
    cx, Jx = problem.constraints(x)
    Jx = Jx.copy()
    cy, Jy = problem.constraints(y)
    cd = problem.constraint_fun(x + d)
    for name in ("dynamics_linear", "above_floor", "force_cone"):
        sl = problem.groups[name]
        assert (Jx[sl] != Jy[sl]).nnz == 0, name
        step = Jx[sl] @ d
        assert np.abs(cd[sl] - cx[sl] - step).max() <= 1e-12 * max(1.0, np.abs(step).max())


def test_objective_breakdown_sums_the_weighted_terms(hop_setup):
    """Each breakdown group is sum w |S x - target|^2 over its terms, and the
    groups sum to the objective."""
    layout, targets, _ = hop_setup
    problem = ReducedProblem(layout, targets)
    x = _random_x(layout, np.random.default_rng(12))
    ref = {}
    for group, track, order, w, target in OBJECTIVE_TERMS:
        res = layout.sampler(track, targets.times, order).values(x)
        res = res - (getattr(targets, target) if target else 0.0)
        ref[group] = ref.get(group, 0.0) + w * (res ** 2).sum()
    got = problem.objective_breakdown(x)
    assert list(got) == ["data", "velocity", "acceleration"]
    for group, value in got.items():
        assert abs(value - ref[group]) <= 1e-10 * ref[group], group
    total = problem.objective_fun(x)
    assert abs(sum(got.values()) - total) <= 1e-12 * total


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
        grad = problem.objective_grad(x)
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


def test_initial_guess_pushes_at_take_off():
    """A stance phase's last force knot sits at its end time, which the
    layout puts in the following flight phase; the static force guess must
    still count the foot as in contact there."""
    script = next(s for s in dataset.exact_suite() if s.name == "hop_a")
    clip = generate(script, seed=0)
    targets = targets_from_kinematic(clip.motion, compute_com_inertia(clip.motion),
                                     clip.floor)
    layout = TrajectoryLayout(clip.contacts)
    x0 = initial_guess(ReducedProblem(layout, targets))
    for i, ph in layout.stance:
        last = ph.force_col + 6 * ph.n_segs
        assert clip.floor.normal @ x0[last:last + 3] > 0.0, (i, ph.first_frame)


def test_short_solve_reduces_violation(hop_setup):
    """A capped dynamics stage should still push feasibility well down."""
    layout, targets, clip = hop_setup
    x0_prob = ReducedProblem(layout, targets)
    v0 = max(x0_prob.violation_by_group(initial_guess(x0_prob)).values())
    traj, report, _ = solve_reduced(targets, clip.contacts, max_iters=40)
    v = report.stages[-1].max_violation
    assert v < 1e-3 and v < 1e-3 * v0
    out = traj.sample(targets.times)
    flight = ~clip.contacts.labels
    assert np.abs(out["forces"][flight]).max() == 0.0


def test_implied_grf_reads_the_forces_optimize_writes(hop_setup, tmp_path):
    """The benchmark scores physics forces with implied_grf; they must be
    the forces.npy that optimize writes for the same trajectory."""
    _, targets, clip = hop_setup
    traj, _, _ = solve_reduced(targets, clip.contacts, max_iters=3)
    _grf_trace(tmp_path, targets.times, traj.sample(targets.times), targets.mass)
    forces = implied_grf(traj)
    assert np.abs(forces).max() > 0.0
    assert np.array_equal(forces, np.load(tmp_path / "forces.npy"))


def test_stages_hold_their_fixed_columns(hop_setup):
    """The dynamics stage holds the COM boundary velocity knots bit-for-bit
    and every stance constant on the floor at every solver iterate, and fit
    and dynamics are the only stages."""
    layout, targets, clip = hop_setup
    iterates = []
    _, report, _ = solve_reduced(targets, clip.contacts, max_iters=3,
                                 collect_iterates=iterates)
    assert [st.name for st in report.stages] == ["fit", "dynamics"]
    assert iterates
    vel_cols = [layout.com_knot_cols(which, k)[1]
                for which in (0, 1) for k in (0, layout.n_com)]
    bound_vel = np.concatenate([_boundary_velocities(targets.r, targets.fps),
                                _boundary_velocities(targets.theta, targets.fps)])
    up, floor_h = clip.floor.normal, clip.floor.normal @ clip.floor.point
    for xk in iterates:
        for vc, v in zip(vel_cols, bound_vel):
            assert np.array_equal(xk[vc:vc + 3], v)
        for _, ph in layout.stance:
            assert abs(up @ xk[ph.const_col:ph.const_col + 3] - floor_h) <= 1e-12
