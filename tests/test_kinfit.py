from __future__ import annotations

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cholesky_banded

from physmocap.contact.sequence import ContactSequence
from physmocap.core.ik import _solve, ik_solve_frame
from physmocap.core.kinematics import (fk_jacobian, fk_positions_rotations,
                                       forward_kinematics, frame_layout,
                                       project_perspective)
from physmocap.core.types import JointAngleMotion
from physmocap.core.types import FloorPlane, PoseSequence
from physmocap.kinfit.floor import fit_floor, fit_floor_from_motion
from physmocap.kinfit.init import estimate_bone_lengths, initialize_from_3d
from physmocap.kinfit.problem import FrameJacobian, KinematicProblem
from physmocap.kinfit.solve import normal_buffer, run_kinematic_init, solve_stage, splu
from physmocap.synth.generate import generate
from physmocap.synth.scripts import MotionScript

from conftest import random_motion


def _random_plane_points(rng, n=200, noise=0.005, outlier_frac=0.1, outlier_lo=0.05):
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    point = rng.normal(0.0, 1.0, 3)
    t1 = np.cross(normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(t1) < 0.1:
        t1 = np.cross(normal, [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    uv = rng.uniform(-1.0, 1.0, (n, 2))
    pts = point + uv[:, :1] * t1 + uv[:, 1:] * t2
    pts += rng.normal(0.0, noise, (n, 1)) * normal
    n_out = int(round(outlier_frac * n))
    out_idx = rng.choice(n, n_out, replace=False)
    pts[out_idx] += rng.uniform(outlier_lo, 0.4, (n_out, 1)) * normal
    return pts, normal, point, out_idx


def test_fit_floor_recovers_plane(rng):
    for _ in range(10):
        pts, normal, point, out_idx = _random_plane_points(rng)
        # orient using points clearly above the plane
        ref = point + rng.uniform(0.5, 1.5, (50, 1)) * normal
        floor, inliers = fit_floor(pts, reference_points=ref)
        cosang = abs(float(floor.normal @ normal))
        assert np.degrees(np.arccos(min(cosang, 1.0))) < 1.0
        assert abs(floor.height(point)) < 0.01
        assert float(floor.normal @ normal) > 0.0   # oriented toward reference
        assert not inliers[out_idx].any()


def test_fit_floor_inlier_width_follows_the_noise(rng):
    # 15 mm of noise, as on the 3D estimate's feet: a fixed 3 cm width would
    # reject ~5% of the noisy points; the data-scaled width keeps them and
    # still rejects every point moved 0.1-0.4 m off the plane
    for _ in range(50):
        pts, normal, point, out_idx = _random_plane_points(
            rng, noise=0.015, outlier_lo=0.1)
        ref = point + rng.uniform(0.5, 1.5, (50, 1)) * normal
        _, inliers = fit_floor(pts, reference_points=ref)
        assert not inliers[out_idx].any()
        noisy = np.ones(len(pts), dtype=bool)
        noisy[out_idx] = False
        assert inliers[noisy].mean() >= 0.98


def test_fit_floor_needs_three_points(rng):
    with pytest.raises(ValueError):
        fit_floor(rng.normal(size=(2, 3)), rng.normal(size=(5, 3)))


def test_fit_floor_from_motion_clears_outliers(skeleton, rng):
    clip = generate(MotionScript(name="w", kind="walk",
                                 params={"step_lift": 0.09}), seed=3)
    positions = forward_kinematics(clip.motion)
    labels = clip.contacts.labels.copy()
    # poison a few contact labels: mark clearly airborne swing feet as contacts
    feet = np.asarray(clip.motion.skeleton.foot_joint_ids)
    heights = clip.floor.height(positions[:, feet].reshape(-1, 3)).reshape(labels.shape)
    swing = np.nonzero(~labels & (heights > 0.05))
    pick = rng.choice(len(swing[0]), 5, replace=False)
    labels[swing[0][pick], swing[1][pick]] = True
    poisoned = ContactSequence(fps=clip.contacts.fps, labels=labels)
    floor, cleaned = fit_floor_from_motion(positions, poisoned, clip.motion.skeleton)
    cos = abs(float(floor.normal @ clip.floor.normal))
    assert np.degrees(np.arccos(min(cos, 1.0))) < 1.0
    assert abs(floor.height(clip.floor.point)) < 0.01
    # swing feet sit well above the plane, so their labels must be cleared
    kept = cleaned.labels[swing[0][pick], swing[1][pick]]
    assert not kept.any()


def test_estimate_bone_lengths(skeleton, rng):
    scaled = dataclasses.replace(skeleton, bone_lengths=skeleton.bone_lengths * 1.07)
    motion = random_motion(scaled, rng, n_frames=8)
    pos = forward_kinematics(motion)
    seq = PoseSequence(scaled.joint_names, 30.0,
                       np.zeros((8, scaled.n_joints, 2)),
                       np.ones((8, scaled.n_joints)), pos)
    est = estimate_bone_lengths(seq, skeleton)
    assert np.allclose(est[1:], scaled.bone_lengths[1:], atol=1e-9)


def test_ik_solve_frame_keeps_leaf_angles(skeleton, rng):
    # leaf angles move no joint, so no target constrains them: the IK must
    # hand back the caller's warm start (upgrade_fullbody passes the
    # kinematic pose's) instead of inventing values
    motion = random_motion(skeleton, rng, n_frames=4, angle_scale=0.35)
    targets = forward_kinematics(motion)[::-1]
    angles0 = motion.joint_angles
    leaves = sorted(set(range(skeleton.n_joints)) - set(skeleton.posed_joints()))
    assert np.abs(angles0[:, leaves]).min() > 0.0
    root, angles = ik_solve_frame(skeleton, targets, np.ones(skeleton.n_joints),
                                  motion.root_pos, angles0)
    rec = forward_kinematics(JointAngleMotion(skeleton, 30.0, root, angles))
    assert np.abs(rec - targets).max() < 1e-3
    assert np.array_equal(angles[:, leaves], angles0[:, leaves])


def test_ik_round_trip(skeleton, rng):
    # every frame from a cold start, as IK init fits frame 0: root at the
    # frame's target pelvis, all angles zero (the rest pose)
    motion = random_motion(skeleton, rng, n_frames=5, angle_scale=0.35)
    targets = forward_kinematics(motion)
    zero = np.zeros((5, skeleton.n_joints, 3))
    root, angles = ik_solve_frame(skeleton, targets, np.ones(skeleton.n_joints),
                                  targets[:, 0], zero)
    rec = forward_kinematics(JointAngleMotion(skeleton, 30.0, root, angles))
    assert np.abs(rec - targets).max() < 1e-3


@pytest.mark.filterwarnings("error")
def test_ik_batch_frames_are_independent(skeleton, rng):
    # frame 0 starts at its targets (no step lowers a zero cost, so it stops
    # after its first iteration's tries; iterated on, its damping would
    # overflow), the others far from theirs; each frame must land where it
    # lands when solved alone
    motion = random_motion(skeleton, rng, n_frames=18, angle_scale=0.35)
    targets = forward_kinematics(motion)
    root0 = targets[:, 0].copy()
    angles0 = np.zeros_like(motion.joint_angles)
    root0[0], angles0[0] = motion.root_pos[0], motion.joint_angles[0]
    weights = np.linspace(0.5, 2.0, skeleton.n_joints)
    root, angles = ik_solve_frame(skeleton, targets, weights, root0, angles0)
    together = forward_kinematics(JointAngleMotion(skeleton, 30.0, root, angles))
    for t in range(len(targets)):
        s = slice(t, t + 1)
        alone = ik_solve_frame(skeleton, targets[s], weights, root0[s], angles0[s])
        pos = forward_kinematics(JointAngleMotion(skeleton, 30.0, *alone))
        assert np.abs(pos[0] - together[t]).max() <= 1e-8
    assert np.array_equal(angles[0], angles0[0])
    assert np.abs(together - targets).max() < 1e-3


def test_ik_warns_with_the_count_of_frames_at_the_iteration_cap(skeleton, rng):
    # frame 0 starts far from its targets and is still iterating after one
    # iteration; frame 1 starts at its targets and stops in that iteration
    motion = random_motion(skeleton, rng, n_frames=2, angle_scale=0.35)
    targets = forward_kinematics(motion)
    root0 = targets[:, 0].copy()
    angles0 = np.zeros_like(motion.joint_angles)
    root0[1], angles0[1] = motion.root_pos[1], motion.joint_angles[1]
    with pytest.warns(UserWarning) as caught:
        ik_solve_frame(skeleton, targets, np.ones(skeleton.n_joints), root0,
                       angles0, max_iters=1)
    assert [str(w.message) for w in caught] == [
        "1 of 2 frames stopped at the IK iteration cap"]


def test_ik_frame_at_its_targets_stops_without_trying_a_step(skeleton, rng,
                                                            monkeypatch):
    # at its targets the damped model promises no drop, so the frame stops
    # after the one FK of its initial residual, without a futile trial FK
    motion = random_motion(skeleton, rng, n_frames=1, angle_scale=0.35)
    calls = []

    def counted(*args):
        calls.append(1)
        return fk_positions_rotations(*args)

    monkeypatch.setattr("physmocap.core.ik.fk_positions_rotations", counted)
    root, angles = ik_solve_frame(skeleton, forward_kinematics(motion),
                                  np.ones(skeleton.n_joints), motion.root_pos,
                                  motion.joint_angles)
    assert len(calls) == 1
    assert np.array_equal(root, motion.root_pos)
    assert np.array_equal(angles, motion.joint_angles)


def test_ik_singular_system_spares_the_rest_of_the_batch():
    # a singular system gets a NaN step, which ik_solve_frame rejects like a
    # step that raises the cost; the other frames' steps are still solved
    H = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
    step = _solve(H, np.ones((3, 3)))
    assert np.array_equal(step[[0, 2]], [[0.5] * 3, [1.0] * 3])
    assert np.isnan(step[1]).all()


def test_initialize_from_3d_carries_frame0_along_the_pelvis(skeleton):
    # IK init fits frame 0 only; the contact stage's LM fits the other frames
    clip = generate(MotionScript(name="w", kind="walk", duration=0.5), seed=5)
    seq = clip.pose
    _, root, angles = initialize_from_3d(seq, skeleton)
    assert root.shape == (seq.n_frames, 3)
    assert angles.shape == (seq.n_frames, skeleton.n_joints, 3)
    assert np.array_equal(angles, np.broadcast_to(angles[0], angles.shape))
    offset = root - seq.joints3d[:, 0]
    assert np.allclose(offset, offset[0], rtol=0.0, atol=1e-12)


def _toy_problem(skeleton, rng, with_floor=True):
    motion = random_motion(skeleton, rng, n_frames=6, angle_scale=0.3)
    motion = JointAngleMotion(skeleton, motion.fps,
                              motion.root_pos + np.array([0.0, 0.0, 3.0]),
                              motion.joint_angles)
    pos3d = forward_kinematics(motion)
    seq = PoseSequence(skeleton.joint_names, motion.fps,
                       project_perspective(pos3d, 2000.0, (960.0, 540.0)),
                       rng.uniform(0.5, 1.0, pos3d.shape[:2]), pos3d)
    labels = rng.random((6, 4)) < 0.5
    labels[:2] = True   # guarantee some stillness pairs
    contacts = ContactSequence(fps=motion.fps, labels=labels)
    floor = FloorPlane(np.array([0.0, -1.0, 0.0]), np.array([0.0, 1.2, 3.0]))
    problem = KinematicProblem(seq, skeleton, contacts=contacts,
                               floor=floor if with_floor else None)
    x0 = problem.pack(motion.root_pos, motion.joint_angles)
    return problem, x0


@pytest.mark.parametrize("with_floor", [True, False])
def test_problem_jacobian_matches_fd(skeleton, rng, with_floor):
    problem, x0 = _toy_problem(skeleton, rng, with_floor)
    x = x0 + rng.normal(0.0, 0.02, x0.shape)
    jac = problem.jacobian(x)
    assert jac.shape == (problem.n_resid, problem.n_vars)
    eps = 1e-6
    for _ in range(6):
        v = rng.normal(size=x.shape)
        v /= np.linalg.norm(v)
        fd = (problem.residuals(x + eps * v) - problem.residuals(x - eps * v)) / (2 * eps)
        an = jac @ v
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(an - fd).max() / denom < 1e-5


def test_problem_variables_are_frame_major(skeleton, rng):
    problem, _ = _toy_problem(skeleton, rng)
    T, J = problem.T, problem.J
    posed = list(skeleton.posed_joints())
    leaves = sorted(set(range(J)) - set(posed))
    K = len(posed)
    root = rng.normal(size=(T, 3))
    angles = rng.normal(size=(T, J, 3))
    x = problem.pack(root, angles)
    back_root, back_angles = problem.unpack(x)
    assert np.array_equal(back_root, root)
    assert np.array_equal(back_angles[:, posed], angles[:, posed])
    assert not back_angles[:, leaves].any()   # leaf angles are not variables
    frames = x.reshape(T, 3 + 3 * K)
    layout, _ = frame_layout(tuple(skeleton.parents))
    assert np.array_equal(frames[:, layout[:3]], root)
    # terms couple frames at most two apart, so J^T J is a band
    jac = problem.jacobian(x).toarray()
    rows, cols = sparse.tril(jac.T @ jac).nonzero()
    assert (rows - cols).max() <= problem.kd


@pytest.mark.parametrize("with_floor", [True, False])
def test_undamped_normal_equations_factor(skeleton, rng, with_floor):
    # every variable moves some residual, so J^T J is positive definite
    # without the LM's damping (a leaf joint's angle columns would be zero)
    problem, x0 = _toy_problem(skeleton, rng, with_floor)
    T, K = problem.T, len(skeleton.posed_joints())
    assert problem.n_vars == T * (3 + 3 * K)
    blocks, lower_band = normal_buffer(problem)
    problem.jacobian(x0 + rng.normal(0.0, 0.02, x0.shape)).normal_blocks(blocks)
    band = np.empty((problem.kd + 1, problem.n_vars), order="F")
    lower_band(band)
    cholesky_banded(band, lower=True)


@pytest.mark.parametrize("with_floor", [True, False])
def test_normal_equations_match_dense_products(skeleton, rng, with_floor):
    problem, x0 = _toy_problem(skeleton, rng, with_floor)
    x = x0 + rng.normal(0.0, 0.02, x0.shape)
    jac = problem.jacobian(x)
    r = problem.residuals(x)
    dense = jac.toarray()
    H, g = dense.T @ dense, dense.T @ r
    # the LM's band: H's frame-pair blocks, read as LAPACK's lower band
    n, kd = problem.n_vars, problem.kd
    blocks, lower_band = normal_buffer(problem)
    blocks[...] = np.nan   # normal_blocks must write every entry
    jac.normal_blocks(blocks)
    band = np.full((kd + 1, n), np.nan, order="F")
    lower_band(band)
    want = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        want[d, :n - d] = np.diagonal(H, -d)
    assert np.abs(band - want).max() <= 1e-12 * np.abs(H).max()
    assert not np.tril(H, -problem.kd - 1).any()   # nothing below the band
    assert np.abs(jac.rmatvec(r) - g).max() <= 1e-12 * np.abs(g).max()


def test_normal_blocks_do_not_depend_on_the_frame_chunk(skeleton, rng, monkeypatch):
    # the rows are gathered a chunk of frames at a time; any chunk writes the
    # same blocks, bit for bit, including chunks whose last frames pair with
    # no later frame
    problem, x0 = _toy_problem(skeleton, rng)
    jac = problem.jacobian(x0 + rng.normal(0.0, 0.02, x0.shape))
    whole, _ = normal_buffer(problem)
    jac.normal_blocks(whole)
    for chunk in (1, 4, 5):
        monkeypatch.setattr("physmocap.kinfit.problem.FRAME_CHUNK", chunk)
        blocks, _ = normal_buffer(problem)
        blocks[...] = np.nan
        jac.normal_blocks(blocks)
        assert np.array_equal(blocks, whole)


def test_subtree_layout_narrows_the_band(skeleton, rng):
    # each root subtree's joints move only its range of columns, so no row
    # reads two subtrees' angles and J^T J reaches 2 nf + (widest range) - 1
    # below its diagonal, not the 3 nf - 1 of a frame read as one block
    problem, x0 = _toy_problem(skeleton, rng)
    x = x0 + rng.normal(0.0, 0.02, x0.shape)
    root, angles = problem.unpack(x)
    jac = fk_jacobian(skeleton, angles,
                      *fk_positions_rotations(skeleton, root, angles))
    nf = problem.n_vars // problem.T
    _, spans = frame_layout(tuple(skeleton.parents))
    covered = np.concatenate([joints for joints, _, _ in spans])
    assert sorted(covered) == list(range(skeleton.n_joints))   # each joint once
    for joints, lo, hi in spans:
        assert not jac[:, joints, :, :lo].any() and not jac[:, joints, :, hi:].any()
    assert problem.kd == 164 < 3 * nf - 1
    dense = problem.jacobian(x).toarray()
    H = dense.T @ dense
    assert not np.tril(H, -problem.kd - 1).any()
    assert np.diagonal(H, -problem.kd).any()   # and no narrower band holds H


def test_lm_reuses_the_accepted_trials_fk(skeleton, rng, monkeypatch):
    # an accepted trial's FK is the next Jacobian's: one FK for the start and
    # one per trial step, none for a Jacobian
    problem, x0 = _toy_problem(skeleton, rng)
    calls = {"fk": 0, "residuals": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("physmocap.kinfit.problem.fk_positions_rotations",
                        counted("fk", fk_positions_rotations))
    for name in ("residuals", "jacobian"):
        monkeypatch.setattr(problem, name, counted(name, getattr(problem, name)))
    solve_stage(problem, x0 + rng.normal(0.0, 0.02, x0.shape), max_iters=4)
    assert calls["jacobian"] >= 2
    assert calls["fk"] == calls["residuals"]   # the start's and one per trial


def test_lm_holds_one_jacobian_at_a_time(skeleton, rng, monkeypatch):
    # each iteration drops its Jacobian once its gradient and normal blocks
    # are formed, so the next one is built into freed memory
    problem, x0 = _toy_problem(skeleton, rng)
    built, live_at_call = [], []

    def tracked(x):
        live_at_call.append(sum(ref() is not None for ref in built))
        jac = jacobian(x)
        built.append(weakref.ref(jac))
        return jac

    jacobian = problem.jacobian
    monkeypatch.setattr(problem, "jacobian", tracked)
    solve_stage(problem, x0 + rng.normal(0.0, 0.02, x0.shape), max_iters=4)
    assert len(live_at_call) >= 3
    assert live_at_call == [0] * len(live_at_call)


def test_lm_phases_hold_only_their_own_buffers(skeleton, rng, monkeypatch):
    # the band is made after the Jacobian is dropped and dropped before the
    # next Jacobian is built, so beside the normal blocks the stage holds the
    # larger of the two at a time. The slack, half the bound, is for the rows
    # normal_blocks gathers from the Jacobian (at 6 frames one chunk is the
    # whole clip, about the Jacobian's size again), the residuals and the FK;
    # the band alive beside the Jacobian, or a fourth plane of blocks, exceeds it
    problem, x0 = _toy_problem(skeleton, rng)
    x0 = x0 + rng.normal(0.0, 0.02, x0.shape)
    bands, live_at_call = [], []

    def factor(ab):
        bands.append(weakref.ref(ab))
        return splu(ab)

    def tracked(jac, out):
        live_at_call.append(sum(ref() is not None for ref in bands))
        return normal_blocks(jac, out)

    normal_blocks = FrameJacobian.normal_blocks
    monkeypatch.setattr("physmocap.kinfit.solve.splu", factor)
    monkeypatch.setattr(FrameJacobian, "normal_blocks", tracked)
    jac = problem.jacobian(x0)
    nf = problem.n_vars // problem.T
    bound = 8 * (3 * problem.T + 1) * nf * nf + max(8 * (problem.kd + 1) * problem.n_vars,
                                                   jac.fk.nbytes + jac.proj.nbytes)
    del jac
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_stage(problem, x0, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(live_at_call) == 3 and bands
    assert live_at_call == [0, 0, 0]
    assert peak <= 1.5 * bound


def test_lm_stage_reports_why_it_stopped(skeleton, monkeypatch):
    # run_kinematic_init keeps the contact stage's stop reason and the count
    # of banded factorizations it ran, for report.json's stage entry
    clip = generate(MotionScript(name="w", kind="walk", duration=0.5), seed=5)
    factored = []

    def counted(ab):
        factored.append(1)
        return splu(ab)

    monkeypatch.setattr("physmocap.kinfit.solve.splu", counted)
    for max_iters, stop in ((5, "max_iters"), (60, "ftol")):
        factored.clear()
        *_, report = run_kinematic_init(clip.pose, skeleton, clip.contacts,
                                        max_iters=max_iters, floor=clip.floor)
        (name, cost, iters, _), = report.stages[1:]
        assert name == "contact"
        # the per-term costs are those of the stage's final residuals
        assert abs(sum(report.cost_breakdown.values()) - cost) <= 1e-12 * cost
        assert report.stops == {
            "contact": {"stop": stop, "factorizations": len(factored)}}
        assert len(factored) >= iters


def test_solve_stage_step_matches_dense_normal_equations(skeleton, rng):
    problem, x0 = _toy_problem(skeleton, rng)
    # the ground truth is far from the smoothed optimum, where a lightly
    # damped Gauss-Newton step overshoots; start near the optimum instead
    fitted = solve_stage(problem, x0, max_iters=10).x
    x = fitted + np.random.default_rng(0).normal(0.0, 0.02, x0.shape)
    jac = problem.jacobian(x).toarray()
    r = problem.residuals(x)
    H = jac.T @ jac
    d = np.maximum(np.diag(H), 1e-10)
    want = x + np.linalg.solve(H + 1e-4 * np.diag(d), -jac.T @ r)
    # the first damping try lowers the cost, so LM takes this step
    r_want = problem.residuals(want)
    assert r_want @ r_want < r @ r
    res = solve_stage(problem, x, max_iters=1)
    assert res.n_iters == 1
    assert np.abs(res.x - want).max() < 1e-9 * np.abs(want - x).max()


def test_problem_residual_layout(skeleton, rng):
    problem, x0 = _toy_problem(skeleton, rng)
    r = problem.residuals(x0)
    assert r.shape == (problem.n_resid,)
    breakdown = problem.cost_breakdown(r)
    # x0 is the ground truth: data-driven terms vanish, smoothness terms do not
    assert breakdown["projection"] < 1e-18
    assert breakdown["data3d"] < 1e-18
    assert breakdown["velocity"] > 0.0
    assert abs(sum(breakdown.values()) - float(r @ r)) < 1e-12


def test_run_kinematic_init_noise_free(skeleton):
    clip = generate(MotionScript(name="w", kind="walk", duration=1.6), seed=11)
    motion, floor, contacts, states, report = run_kinematic_init(
        clip.pose, skeleton, clip.contacts)
    gt = forward_kinematics(clip.motion)
    got = forward_kinematics(motion)
    err = np.linalg.norm(got - gt, axis=-1)
    # absolute depth is only weakly observable from projection, so the
    # damping terms leave a small global drift; root-relative pose is tighter
    rel_err = np.linalg.norm((got - got[:, :1]) - (gt - gt[:, :1]), axis=-1)
    assert err.mean() < 0.025
    assert rel_err.mean() < 0.01
    cos = abs(float(floor.normal @ clip.floor.normal))
    assert np.degrees(np.arccos(min(cos, 1.0))) < 0.5
    assert abs(floor.height(clip.floor.point)) < 0.002
    assert states.n_frames == clip.pose.n_frames
    assert states.mass > 50.0
    assert len(report.stages) == 2


def test_both_floor_paths_run_one_lm_stage_from_ik_init(skeleton, monkeypatch):
    """The floor is fitted on the 3D estimate, so a given floor and a fitted
    one each make one solve_stage call, from the same IK-init start."""
    clip = generate(MotionScript(name="w", kind="walk", duration=0.5), seed=5)
    starts = []

    def counted(problem, x0, max_iters):
        starts.append(x0)
        return solve_stage(problem, x0, max_iters)

    monkeypatch.setattr("physmocap.kinfit.solve.solve_stage", counted)
    for floor in (clip.floor, None):
        *_, report = run_kinematic_init(clip.pose, skeleton, clip.contacts,
                                        max_iters=2, floor=floor)
        assert [s[0] for s in report.stages] == ["init", "contact"]
    assert len(starts) == 2
    assert np.array_equal(starts[0], starts[1])


def test_run_kinematic_init_reduces_skate(skeleton):
    clip = generate(MotionScript(name="w", kind="walk", duration=1.6,
                                 pixel_noise=4.0, depth_noise=0.015,
                                 conf_drop=0.04), seed=12)
    motion, floor, contacts, states, report = run_kinematic_init(
        clip.pose, skeleton, clip.contacts)
    feet = np.asarray(clip.motion.skeleton.foot_joint_ids)
    labels = contacts.labels
    pairs = labels[:-1] & labels[1:]
    t_idx, k_idx = np.nonzero(pairs)

    def skate(pos):
        steps = pos[t_idx + 1, feet[k_idx]] - pos[t_idx, feet[k_idx]]
        return np.linalg.norm(steps, axis=-1)

    raw = skate(clip.pose.joints3d)
    fit = skate(forward_kinematics(motion))
    assert fit.mean() < 0.5 * raw.mean()
    assert fit.max() < 0.02
    # recovered floor should still be close despite the noise
    cos = abs(float(floor.normal @ clip.floor.normal))
    assert np.degrees(np.arccos(min(cos, 1.0))) < 2.0
    assert abs(floor.height(clip.floor.point)) < 0.02
